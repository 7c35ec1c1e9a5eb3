(** Pipeline stage fixture. *)

val create : unit -> (int, unit) Hashtbl.t
val min : int -> int -> int
val stage1 : unit Int_table.t -> int -> int
val stage2 : unit Int_table.t -> int -> int
