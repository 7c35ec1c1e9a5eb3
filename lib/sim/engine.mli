(** Discrete-event simulation engine.

    This is the substitute for ns-2's scheduler: a virtual clock plus an
    ordered queue of callbacks.  Events scheduled for the same instant
    run in scheduling order, and every event may be cancelled (needed
    for TCP retransmission timers).

    Internally the engine keeps a slab of reusable, generation-stamped
    event cells over a structure-of-arrays 8-ary heap: scheduling,
    firing and cancelling allocate nothing beyond the caller's own
    closure, and the per-packet hot paths avoid even that via
    {!port}s — handlers registered once and scheduled by reference.
    The heap holds live events only: {!cancel} removes its entry at
    once, so the heap stays at the simulation's live working set no
    matter how often timers are re-armed. *)

type t

type handle
(** Token identifying a scheduled event; used only for cancellation.
    Handles are immediates (no allocation) and are generation-checked:
    a handle whose event has fired, been cancelled, or whose cell has
    been recycled for a newer event is simply stale — cancelling it is
    a safe no-op. *)

val null : handle
(** A handle that identifies no event — {!cancel} on it is a no-op.
    Lets callers keep "no timer armed" in a plain [handle] field
    instead of a [handle option], which would box a [Some] on every
    re-arm (the sender's RTO path re-arms once per ACK). *)

val is_null : handle -> bool
(** Recognizes {!null} (and only it among handles this engine ever
    returns). *)

val create : unit -> t
(** Fresh engine with the clock at 0. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past or not finite —
    unless the {!Invariant} sanitizer is armed, in which case the
    anomaly is recorded and [time] is clamped to the current clock so
    the run can continue and report every violation at once. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** Relative form of {!schedule_at}; [delay] must be non-negative (same
    raise-or-record contract as {!schedule_at}). *)

(** {2 Closure-free fast path}

    The two dominant event kinds of a packet simulation — link
    transmit-complete and propagation-delivery — fire the same handler
    millions of times.  A {!port} registers that handler exactly once
    in a per-engine table; the [schedule_port_*] functions then enqueue
    its index with zero allocation per event — no closure, no event
    cell, no write barrier, just one heap push.  Port events cannot be
    cancelled individually.

    A component that fires one port for a FIFO stream of future events
    (a link delivering its propagating packets) can keep a single entry
    in the heap instead of one per event: it takes each event's
    tie-break number with {!reserve_seq} at the moment it would have
    scheduled it, stores the [(time, seq)] pair itself, and hands the
    head of its stream to {!schedule_port_reserved} when the previous
    one fires.  Because the engine pops in [(time, seq)] order, the
    firing order is exactly what scheduling each event eagerly would
    have produced. *)

type port

val port : t -> (unit -> unit) -> port
(** Pre-register a reusable handler on this engine.  Build ports at
    component-creation time, never per event (that would grow the
    registry without bound); registrations are permanent.  A port is
    only valid on the engine it was registered with — scheduling it
    elsewhere raises [Invalid_argument]. *)

val schedule_port_at : t -> time:float -> port -> unit
(** Like {!schedule_at} for a pre-registered handler: no closure, no
    handle.  Same time-validation contract. *)

val schedule_port_after : t -> delay:float -> port -> unit

val reserve_seq : t -> int
(** Take the next FIFO tie-break number without scheduling anything:
    an event later given this number by {!schedule_port_reserved}
    orders exactly as if it had been scheduled now. *)

val schedule_port_reserved : t -> time:float -> seq:int -> port -> unit
(** [schedule_port_reserved t ~time ~seq p] schedules [p] at [time]
    under a number [seq] previously taken from {!reserve_seq} (each
    number should be used once).  Same time-validation contract as
    {!schedule_port_at}; raises [Invalid_argument] if [seq] was never
    reserved. *)

(** {2 Cancellation} *)

val cancel : t -> handle -> unit
(** Remove the event from the queue and recycle its cell, both at once
    (O(log n), no allocation).  Cancelling twice, after the event fired,
    or after the cell was recycled is a no-op (generation-checked). *)

val cancelled : t -> handle -> bool

val pending : t -> int
(** Number of live events in the queue: scheduled, not yet fired and
    not cancelled.  It is also the heap's size. *)

val executed : t -> int
(** Number of events dispatched since creation (port firings plus cell
    firings; cancelled events never fire and do not count).  The parallel-DES
    bench aggregates this across island engines for its events/s
    figure, and being a pure function of the event sequence it is also
    a cheap determinism probe. *)

val step : t -> bool
(** Execute the next event.  Returns [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the queue.  With [until], stops once the next event lies
    strictly beyond that time and advances the clock to [until]. *)

val stop : t -> unit
(** Make the current [run] return after the in-flight event completes. *)
