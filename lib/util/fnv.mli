(** 32-bit FNV-1a: the one stable, process-independent hash behind
    context-server shard placement, the swarm's cell binning and
    response checksum, and the parking lot's fingerprint.  Folds start
    from {!offset} (or any earlier hash) and stay within 32 bits. *)

val offset : int
(** The FNV-1a 32-bit offset basis, [0x811c9dc5]. *)

val prime : int
(** The FNV 32-bit prime, [0x01000193]. *)

val fold_int : int -> int -> int
(** [fold_int h v] folds the low 32 bits of [v] into [h] as one step. *)

val fold_string : int -> string -> int
(** [fold_string h s] folds every byte of [s] into [h], in order. *)
