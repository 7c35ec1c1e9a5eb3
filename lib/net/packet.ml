module Invariant = Phi_sim.Invariant

let mss = 1500
let ack_size = 40
let max_sack_blocks = 3

(* Handles are immediate ints packing (generation, cell index), exactly
   like the engine's event handles: low [idx_bits] bits index the slab,
   the rest are the cell's generation at acquire time.  Releasing a cell
   bumps its generation, so every handle to the previous life of the
   cell becomes detectably stale. *)
type handle = int

let idx_bits = 25
let idx_mask = (1 lsl idx_bits) - 1
let max_cells = 1 lsl idx_bits

(* Structure-of-arrays slab: one stripe of ints and one of unboxed
   floats per cell.  ACK metadata lives inline — up to
   [max_sack_blocks] (lo, hi) pairs in the int stripe — so an ACK never
   allocates an inner record or a list. *)
let i_flow = 0
let i_src = 1
let i_dst = 2
let i_seq = 3
let i_size = 4
let i_flags = 5
let i_nsack = 6
let i_sack0 = 7
let i_stride = i_sack0 + (2 * max_sack_blocks)

let f_sent_at = 0
let f_enqueued_at = 1
let f_echo_sent_at = 2
let f_echo_tx = 3
let f_stride = 4

let fl_data = 1
let fl_retransmit = 2
let fl_ce = 4
let fl_ece = 8
let fl_echo = 16

type pool = {
  mutable gen : int array;  (* current generation of each cell *)
  mutable ints : int array;  (* [i_stride] ints per cell *)
  mutable floats : floatarray;  (* [f_stride] unboxed floats per cell *)
  mutable free : int array;  (* stack of free cell indices *)
  mutable free_len : int;
  mutable live : int;
  mutable high_water : int;
}

let create_pool () =
  {
    gen = [||];
    ints = [||];
    floats = Float.Array.create 0;
    free = [||];
    free_len = 0;
    live = 0;
    high_water = 0;
  }

(* Double the slab (64 cells minimum).  Only called with an empty free
   list, so the old free stack can be discarded; the new indices are
   stacked so the lowest pops first, keeping live cells clustered at the
   bottom of the slab. *)
let grow pool =
  let cap = Array.length pool.gen in
  let ncap = if cap = 0 then 64 else 2 * cap in
  if ncap > max_cells then invalid_arg "Packet: pool exceeded 2^25 cells";
  (* Amortized doubling: each cell is copied O(1) times over the pool's
     lifetime, and a sized [create_pool] never grows at all. *)
  let gen = Array.make ncap 0 in (* phi-lint: allow hot-alloc *)
  Array.blit pool.gen 0 gen 0 cap;
  let ints = Array.make (ncap * i_stride) 0 in (* phi-lint: allow hot-alloc *)
  Array.blit pool.ints 0 ints 0 (cap * i_stride);
  let floats = Float.Array.make (ncap * f_stride) 0. in (* phi-lint: allow hot-alloc *)
  Float.Array.blit pool.floats 0 floats 0 (cap * f_stride);
  let free = Array.make ncap 0 in (* phi-lint: allow hot-alloc *)
  let fresh = ncap - cap in
  for i = 0 to fresh - 1 do
    free.(i) <- ncap - 1 - i
  done;
  pool.gen <- gen;
  pool.ints <- ints;
  pool.floats <- floats;
  pool.free <- free;
  pool.free_len <- fresh

let[@inline] alive pool h =
  let idx = h land idx_mask in
  idx < Array.length pool.gen && pool.gen.(idx) = h lsr idx_bits

let[@inline never] record_stale h =
  Invariant.record ~rule:"packet-stale-handle" ~time:0.
    (Printf.sprintf "Packet: field access through stale handle (cell %d)" (h land idx_mask))

(* Sanitizer hook: reading through a handle whose cell has been released
   (and possibly re-acquired for another packet) yields garbage field
   values without crashing — exactly the class of bug a generation check
   catches.  Gated on the armed flag so the steady-state cost is one
   load and branch; the recording path stays out of line so the
   accessors below inline even without flambda. *)
let[@inline] check pool h = if !Invariant.armed && not (alive pool h) then record_stale h

let acquire pool =
  if pool.free_len = 0 then grow pool;
  pool.free_len <- pool.free_len - 1;
  let idx = pool.free.(pool.free_len) in
  pool.live <- pool.live + 1;
  if pool.live > pool.high_water then pool.high_water <- pool.live;
  idx

let acquire_data pool ~flow ~src ~dst ~seq ~now ~retransmit =
  let idx = acquire pool in
  let base = idx * i_stride in
  let ints = pool.ints in
  ints.(base + i_flow) <- flow;
  ints.(base + i_src) <- src;
  ints.(base + i_dst) <- dst;
  ints.(base + i_seq) <- seq;
  ints.(base + i_size) <- mss;
  ints.(base + i_flags) <- (if retransmit then fl_data lor fl_retransmit else fl_data);
  ints.(base + i_nsack) <- 0;
  let fbase = idx * f_stride in
  Float.Array.set pool.floats (fbase + f_sent_at) now;
  Float.Array.set pool.floats (fbase + f_enqueued_at) now;
  Float.Array.set pool.floats (fbase + f_echo_sent_at) 0.;
  Float.Array.set pool.floats (fbase + f_echo_tx) 0.;
  (pool.gen.(idx) lsl idx_bits) lor idx

let acquire_ack pool ~flow ~src ~dst ~next_expected ~has_echo ~echo_sent_at ~echo_tx_time
    ~ece ~now =
  let idx = acquire pool in
  let base = idx * i_stride in
  let ints = pool.ints in
  ints.(base + i_flow) <- flow;
  ints.(base + i_src) <- src;
  ints.(base + i_dst) <- dst;
  ints.(base + i_seq) <- next_expected;
  ints.(base + i_size) <- ack_size;
  ints.(base + i_flags) <- (if has_echo then fl_echo else 0) lor (if ece then fl_ece else 0);
  ints.(base + i_nsack) <- 0;
  let fbase = idx * f_stride in
  Float.Array.set pool.floats (fbase + f_sent_at) now;
  Float.Array.set pool.floats (fbase + f_enqueued_at) now;
  Float.Array.set pool.floats (fbase + f_echo_sent_at) echo_sent_at;
  Float.Array.set pool.floats (fbase + f_echo_tx) echo_tx_time;
  (pool.gen.(idx) lsl idx_bits) lor idx

let add_sack pool h ~lo ~hi =
  check pool h;
  let base = (h land idx_mask) * i_stride in
  let n = pool.ints.(base + i_nsack) in
  if n >= max_sack_blocks then invalid_arg "Packet.add_sack: too many SACK blocks";
  pool.ints.(base + i_sack0 + (2 * n)) <- lo;
  pool.ints.(base + i_sack0 + (2 * n) + 1) <- hi;
  pool.ints.(base + i_nsack) <- n + 1

(* A release through a stale handle means a double release or a
   use-after-free: letting it through would push the cell onto the free
   list twice and hand the same cell to two owners.  Always
   generation-checked; the sanitizer records the violation and keeps
   going, a bare run fails fast. *)
let release pool h =
  let idx = h land idx_mask in
  if idx >= Array.length pool.gen || pool.gen.(idx) <> h lsr idx_bits then begin
    if !Invariant.armed then
      Invariant.record ~rule:"packet-double-release" ~time:0.
        (Printf.sprintf "Packet: release through stale handle (cell %d): double release?" idx)
    else invalid_arg "Packet.release: stale handle (double release?)"
  end
  else begin
    pool.gen.(idx) <- pool.gen.(idx) + 1;
    pool.free.(pool.free_len) <- idx;
    pool.free_len <- pool.free_len + 1;
    pool.live <- pool.live - 1
  end

let in_use pool = pool.live
let high_water pool = pool.high_water

(* The accessors below are forced inline (the paths through them run
   once or more per simulated packet, and an out-of-line float-returning
   call would box its result on every read), and they index the slab
   with unsafe gets: a handle can only be minted by [acquire] with an
   in-range cell index, and the slab never shrinks, so the index is in
   range for the life of the pool.  Staleness is covered by the
   generation stamp in [check]. *)

let[@inline] ibase h = (h land idx_mask) * i_stride
let[@inline] fbase h = (h land idx_mask) * f_stride
let[@inline] iget pool off = Array.unsafe_get pool.ints off
let[@inline] fget pool off = Float.Array.unsafe_get pool.floats off

let[@inline] flow pool h =
  check pool h;
  iget pool (ibase h + i_flow)

let[@inline] src pool h =
  check pool h;
  iget pool (ibase h + i_src)

let[@inline] dst pool h =
  check pool h;
  iget pool (ibase h + i_dst)

let[@inline] seq pool h =
  check pool h;
  iget pool (ibase h + i_seq)

let[@inline] size pool h =
  check pool h;
  iget pool (ibase h + i_size)

let[@inline] is_data pool h =
  check pool h;
  iget pool (ibase h + i_flags) land fl_data <> 0

let[@inline] retransmit pool h =
  check pool h;
  iget pool (ibase h + i_flags) land fl_retransmit <> 0

let[@inline] ce pool h =
  check pool h;
  iget pool (ibase h + i_flags) land fl_ce <> 0

let[@inline] mark_ce pool h =
  check pool h;
  let off = ibase h + i_flags in
  Array.unsafe_set pool.ints off (iget pool off lor fl_ce)

let[@inline] ack_ece pool h =
  check pool h;
  iget pool (ibase h + i_flags) land fl_ece <> 0

let[@inline] ack_has_echo pool h =
  check pool h;
  iget pool (ibase h + i_flags) land fl_echo <> 0

let[@inline] sent_at pool h =
  check pool h;
  fget pool (fbase h + f_sent_at)

let[@inline] enqueued_at pool h =
  check pool h;
  fget pool (fbase h + f_enqueued_at)

let[@inline] set_enqueued_at pool h now =
  check pool h;
  Float.Array.unsafe_set pool.floats (fbase h + f_enqueued_at) now

let[@inline] ack_echo_sent_at pool h =
  check pool h;
  fget pool (fbase h + f_echo_sent_at)

let[@inline] ack_echo_tx_time pool h =
  check pool h;
  fget pool (fbase h + f_echo_tx)

let[@inline] sack_count pool h =
  check pool h;
  iget pool (ibase h + i_nsack)

let sack_lo pool h i =
  check pool h;
  if i < 0 || i >= pool.ints.(ibase h + i_nsack) then invalid_arg "Packet.sack_lo: bad index";
  pool.ints.(ibase h + i_sack0 + (2 * i))

let sack_hi pool h i =
  check pool h;
  if i < 0 || i >= pool.ints.(ibase h + i_nsack) then invalid_arg "Packet.sack_hi: bad index";
  pool.ints.(ibase h + i_sack0 + (2 * i) + 1)

let pp pool ppf h =
  let kind = if is_data pool h then "data" else "ack" in
  Format.fprintf ppf "%s[flow=%d %d->%d seq=%d %dB t=%.4f]" kind (flow pool h) (src pool h)
    (dst pool h) (seq pool h) (size pool h) (sent_at pool h)

(* {2 Handle FIFOs}

   A circular buffer over plain [int array]s: handles are immediates, so
   every store is a bare write — no [caml_modify] barrier, unlike a
   polymorphic ['a array] ring — and push/pop allocate nothing once the
   buffer has grown to its working size. *)
module Fifo = struct
  type t = {
    stamped : bool;
    mutable hs : int array;
    (* Stamped FIFOs only, one entry per slot of [hs]. *)
    mutable seqs : int array;
    mutable times : floatarray;
    mutable head : int;
    mutable len : int;
  }

  let create ?(stamped = false) () =
    { stamped; hs = [||]; seqs = [||]; times = Float.Array.create 0; head = 0; len = 0 }

  let[@inline] length t = t.len
  let[@inline] is_empty t = t.len = 0

  (* Double in place, unwrapping the live run to the front.  Amortized:
     steady-state pushes reuse the grown arrays. *)
  let grow t =
    let cap = Array.length t.hs in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let hs = Array.make ncap 0 in (* phi-lint: allow hot-alloc *)
    let seqs = Array.make (if t.stamped then ncap else 0) 0 in (* phi-lint: allow hot-alloc *)
    let times = Float.Array.make (if t.stamped then ncap else 0) 0. in (* phi-lint: allow hot-alloc *)
    for i = 0 to t.len - 1 do
      let j = (t.head + i) mod cap in
      hs.(i) <- t.hs.(j);
      if t.stamped then begin
        seqs.(i) <- t.seqs.(j);
        Float.Array.set times i (Float.Array.get t.times j)
      end
    done;
    t.hs <- hs;
    t.seqs <- seqs;
    t.times <- times;
    t.head <- 0

  (* Slot of the [i]-th queued entry; callers keep [i <= len < cap]. *)
  let[@inline] slot t i =
    let j = t.head + i in
    let cap = Array.length t.hs in
    if j >= cap then j - cap else j

  let[@inline] push t h =
    if t.len = Array.length t.hs then grow t;
    Array.unsafe_set t.hs (slot t t.len) h;
    t.len <- t.len + 1

  let[@inline never] unstamped () = invalid_arg "Packet.Fifo.push_stamped: FIFO is not stamped"

  (* Inlined so [time] reaches the [floatarray] store unboxed. *)
  let[@inline] push_stamped t h ~time ~seq =
    if not t.stamped then unstamped ();
    if t.len = Array.length t.hs then grow t;
    let s = slot t t.len in
    Array.unsafe_set t.hs s h;
    Array.unsafe_set t.seqs s seq;
    Float.Array.unsafe_set t.times s time;
    t.len <- t.len + 1

  let[@inline never] empty what = invalid_arg ("Packet.Fifo." ^ what ^ ": empty")

  let[@inline] peek t =
    if t.len = 0 then empty "peek";
    Array.unsafe_get t.hs t.head

  (* Inlined: an out-of-line float return would be boxed. *)
  let[@inline] head_time t =
    if t.len = 0 || not t.stamped then empty "head_time";
    Float.Array.unsafe_get t.times t.head

  let[@inline] head_seq t =
    if t.len = 0 || not t.stamped then empty "head_seq";
    Array.unsafe_get t.seqs t.head

  let[@inline] pop t =
    if t.len = 0 then empty "pop";
    let h = Array.unsafe_get t.hs t.head in
    let next = t.head + 1 in
    t.head <- (if next = Array.length t.hs then 0 else next);
    t.len <- t.len - 1;
    h

  let fold f acc t =
    let acc = ref acc in
    for i = 0 to t.len - 1 do
      acc := f !acc (Array.unsafe_get t.hs (slot t i))
    done;
    !acc
end
