(* Setup may use the generic table: nothing hot reaches [create]. *)
let create () = Hashtbl.create 16

(* A project-local [min] on ints is not the polymorphic one. *)
let min (a : int) b = if a < b then a else b

let stage2 seen h =
  if Int_table.mem seen h then 0
  else min h 64

let stage1 seen h = stage2 seen (h + 1)
