let offset = 0x811c9dc5
let prime = 0x01000193

let[@inline] fold_int h v = (h lxor (v land 0xffffffff)) * prime land 0xffffffff

let fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fold_int !h (Char.code (String.get s i))
  done;
  !h
