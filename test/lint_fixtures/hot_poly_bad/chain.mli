(** Pipeline stage fixture. *)

val stage1 : (int, unit) Hashtbl.t -> int -> int
val stage2 : (int, unit) Hashtbl.t -> int -> int
