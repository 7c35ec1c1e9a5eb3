(** Hash tables keyed by [int], for the simulator's per-packet lookups
    (node routes and flow demultiplexing, the receiver's out-of-order
    buffer, the sender's SACK scoreboard).

    The stdlib's generic [Hashtbl] hashes every key with the runtime's
    polymorphic [caml_hash] and compares keys with [compare_val]; this
    instance hashes an int to itself (masked non-negative) and compares
    with int equality, so a probe makes no call into the runtime.  The
    bucket order differs from the generic table's, so code whose output
    depends on iteration order ([iter], [fold]) must not switch to it
    without checking that order is irrelevant there. *)

include Hashtbl.S with type key = int
