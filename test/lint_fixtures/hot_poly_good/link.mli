(** Hot-path entry fixture. *)

val send : int -> int -> int
