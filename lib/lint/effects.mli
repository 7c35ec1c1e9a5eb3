(** hot-alloc: allocation-effect propagation over the call graph, and
    hot-poly: polymorphic runtime calls on the same hot paths.

    A function's effect is the set of {!Ast_scan.alloc_kind}s it can
    perform, joined with its resolvable callees' effects to a fixpoint.
    {!violations} reports every non-cold allocation site in every
    function reachable from the hot entry points through non-cold
    edges, each carrying the call chain that makes it hot. *)

val default_entries : string list
(** The steady-state hot paths: the engine event loop ([Engine.step] /
    [Engine.run]), the link pipeline ([Link.send] and its service /
    completion / delivery handlers), local delivery ([Node.receive]),
    and the transport per-packet handlers ([Sender.on_ack] /
    [Sender.on_packet], [Receiver.handle] / [Receiver.send_ack]).
    Setup paths are deliberately absent. *)

val effect_of : Callgraph.t -> string -> Ast_scan.alloc_kind list
(** Fixpoint summary effect of the named function (suffix-resolved),
    own allocations joined with reachable callees'.  Empty when the
    function is unknown or allocation-free. *)

type finding = { file : string; line : int; message : string }

val violations : ?entries:string list -> Callgraph.t -> finding list
(** One finding per non-cold allocation site reachable from [entries]
    (default {!default_entries}), in file order of discovery. *)

val poly_violations : ?entries:string list -> Callgraph.t -> finding list
(** hot-poly: one finding per non-cold reference to [min], [max] or
    [compare] (bare or [Stdlib.]-qualified, and not resolving to a
    project function) or to a generic [Hashtbl] operation, in every
    function reachable from [entries] (default {!default_entries})
    through the same non-cold edges as {!violations}.  Without flambda
    these are calls into the runtime's generic comparison and hashing
    ([caml_lessequal], [compare_val], [caml_hash]) on every execution. *)
