(* Two calls below the link loop: a generic table probe and an
   unspecialised min, on every packet. *)
let stage2 seen h =
  if Hashtbl.mem seen h then 0
  else Stdlib.min h 64

let stage1 seen h = stage2 seen (h + 1)
