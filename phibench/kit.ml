(* The benchmark's own machinery, kept free of the simulator so the
   unit tests can drive it with fake clocks and fake workloads. *)

(* {2 Clock} *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9

let time_ns f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  now_ns () - t0

(* {2 Host speed}

   A shared virtual machine's speed drifts: over minutes the same code
   runs a fifth faster or slower with the host's clock frequency and the
   load other tenants put on its caches and memory.  The estimators of
   phibench.ml absorb spells of seconds, not a drift that outlasts a
   run, so a run also measures the host.  Two kernels that are the
   benchmark's own and call nothing of the program are timed between
   the workload's rounds: an integer recurrence (the core's clock) and a
   pointer chase round a random cycle through 8 MB held outside the
   OCaml heap (memory latency past the core's private caches).  Each
   keeps its least time over the run.  The host's speed is the
   geometric mean of nominal over least time: 1 on the host the nominal
   times were taken on, below 1 on a slower one.  The end-to-end
   timings are reported at nominal speed: a time is multiplied by the
   speed, a rate divided by it. *)

let arith_steps = 4_000_000
let chase_steps = 100_000
let chase_slots = 1 lsl 20
let ring_bytes = chase_slots * 8

(* The kernels' least times on a 2-vCPU Intel Xeon KVM guest. *)
let nominal_arith_ns = 7_386_000
let nominal_chase_ns = 9_893_000

type host = {
  ring : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable arith_ns : int;
  mutable chase_ns : int;
  mutable samples : int;
}

(* Sattolo's shuffle, seeded: one cycle through every slot, the same in
   every run. *)
let host () =
  let ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chase_slots in
  for i = 0 to chase_slots - 1 do
    ring.{i} <- i
  done;
  let st = Random.State.make [| 7 |] in
  for i = chase_slots - 1 downto 1 do
    let j = Random.State.int st i in
    let t = ring.{i} in
    ring.{i} <- ring.{j};
    ring.{j} <- t
  done;
  { ring; arith_ns = max_int; chase_ns = max_int; samples = 0 }

let arith () =
  let x = ref 1 in
  for _ = 1 to arith_steps do
    x := ((!x * 1103515245) + 12345) land 0xffffff
  done;
  !x

let chase ring =
  let j = ref 0 in
  for _ = 1 to chase_steps do
    j := Bigarray.Array1.unsafe_get ring !j
  done;
  !j

(* The chase walks the same path twice and times the second walk, so
   it finds the ring in the shared cache whatever the workload did
   before it. *)
let sample_host h =
  h.arith_ns <- Stdlib.min h.arith_ns (time_ns arith);
  ignore (Sys.opaque_identity (chase h.ring));
  h.chase_ns <- Stdlib.min h.chase_ns (time_ns (fun () -> chase h.ring));
  h.samples <- h.samples + 1

let speed ~arith_ns ~chase_ns =
  sqrt
    (float_of_int nominal_arith_ns /. float_of_int arith_ns
    *. (float_of_int nominal_chase_ns /. float_of_int chase_ns))

let host_speed h = if h.samples = 0 then 1. else speed ~arith_ns:h.arith_ns ~chase_ns:h.chase_ns

(* {2 Percentiles}

   Nearest rank on the sorted samples: the p-th percentile of [n]
   samples is the [ceil (p/100 * n)]-th smallest.  Every percentile is
   reported with its sample count and with how many samples lie beyond
   it; a tail percentile is only resolved when at least ten samples lie
   beyond it. *)

type percentile = { value : float; samples : int; beyond : int }

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Kit.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Kit.percentile: p must be in (0, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  let rank = Stdlib.min rank n in
  { value = sorted.(rank - 1); samples = n; beyond = n - rank }

let resolved pct = pct.beyond >= 10

(* {2 Open-loop load generation}

   Request [i] is due at [start + i * interval].  The generator waits
   for the due time (never sleeping past it), issues the request and
   charges its latency from the due time, not from when it was issued:
   a stall in request [k] makes [k+1 ...] start late, and that wait is
   part of their latency. *)

type open_loop = {
  latency_ns : int array;  (** completion minus due time, per request *)
  late_ns : int array;  (** issue minus due time, per request *)
  max_backlog : int;  (** most requests overdue at one issue instant *)
}

let open_loop ~clock ~interval_ns ~n serve =
  if interval_ns <= 0 then invalid_arg "Kit.open_loop: interval must be positive";
  let latency_ns = Array.make n 0 and late_ns = Array.make n 0 in
  let max_backlog = ref 0 in
  let start = clock () in
  for i = 0 to n - 1 do
    let due = start + (i * interval_ns) in
    let now = ref (clock ()) in
    while !now < due do
      now := clock ()
    done;
    (* Requests [i .. overdue] are all due by now; [i] is the oldest. *)
    let overdue = (!now - start) / interval_ns in
    max_backlog := Stdlib.max !max_backlog (Stdlib.min (n - 1) overdue - i + 1);
    late_ns.(i) <- !now - due;
    serve i;
    latency_ns.(i) <- clock () - due
  done;
  { latency_ns; late_ns; max_backlog = !max_backlog }

(* {2 Correctness ledger}

   Every timed operation is attempted once; it fails when it raises,
   when an output check rejects it, or when its fingerprint differs
   from the first fingerprint recorded under the same key (the same
   input run earlier in the process, or in the untraced half of a
   traced run). *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  references : (string, string) Hashtbl.t;
  mutable reasons : string list;  (* newest first, capped *)
}

let ledger () = { attempted = 0; failed = 0; references = Hashtbl.create 64; reasons = [] }

let fail ledger reason =
  ledger.failed <- ledger.failed + 1;
  if List.length ledger.reasons < 8 then ledger.reasons <- reason :: ledger.reasons

let attempt ledger f =
  ledger.attempted <- ledger.attempted + 1;
  match f () with
  | r -> Some r
  | exception e ->
    fail ledger (Printexc.to_string e);
    None

let check ledger ~key fingerprint =
  match Hashtbl.find_opt ledger.references key with
  | None -> Hashtbl.replace ledger.references key fingerprint
  | Some expected ->
    if not (String.equal expected fingerprint) then
      fail ledger (Printf.sprintf "%s: fingerprint %s, expected %s" key fingerprint expected)

let error_rate ledger =
  if ledger.attempted = 0 then 1. else float_of_int ledger.failed /. float_of_int ledger.attempted

(* {2 FNV-1a} *)

let fnv_offset = 0x811c9dc5
let fnv_string h s =
  let h = ref h in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xffffffff) s;
  !h

(* {2 Metric registry}

   The names printed here are the names [BENCHMARK.json] declares; the
   unit test holds the two equal and both to the name grammar. *)

type scaling = Time | Rate | Plain
type metric = { name : string; unit_ : string; scaling : scaling }

let metric ?(scaling = Plain) name unit_ = { name; unit_; scaling }

(* [v], read on a host running at [speed], at nominal host speed. *)
let at_nominal ~speed m v =
  match m.scaling with Time -> v *. speed | Rate -> v /. speed | Plain -> v

let end_to_end =
  [
    metric ~scaling:Time "setup_s" "s";
    metric ~scaling:Rate "sim_s_per_s" "s/s";
    metric ~scaling:Rate "ops_per_s" "1/s";
    metric ~scaling:Time "service_p50_us" "us";
    metric "peak_rss_mb" "MB";
  ]

let per_layer =
  [
    metric "engine.events" "count";
    metric "engine.events_per_bn_pkt" "ratio";
    metric "core.ns_per_bn_pkt" "ns";
    metric "ladder.engine_ns_per_event" "ns";
    metric "ladder.link_ns_per_pkt" "ns";
    metric "cc.on_ack_calls" "count";
    metric "cc.on_ack_ns" "ns";
    metric "cc.self_share" "ratio";
    metric "remy.on_ack_calls" "count";
    metric "remy.on_ack_ns" "ns";
    metric "remy.self_share" "ratio";
    metric "pdes.speedup_2v1" "ratio";
    metric "pdes.boundary_pkts" "count";
    metric "pdes.windows" "count";
    metric "topology.build_ms" "ms";
    metric "packet.pool_high_water" "count";
    metric "link.bn_pkts" "count";
    metric "link.drop_share" "ratio";
    metric "link.ecn_marks" "count";
    metric "link.queue_wait_us" "us";
    metric "link.bn_util" "ratio";
    metric "tcp.connections" "count";
    metric "tcp.retx_share" "ratio";
    metric "tcp.timeouts" "count";
    metric "ctx.handle_ns.lookup" "ns";
    metric "ctx.handle_ns.report" "ns";
    metric "ctx.stalls" "count";
    metric "ctx.flushes" "count";
    metric "ctx.evictions" "count";
    metric "ctx.resident_paths" "count";
    metric "ctx.stale_answers" "count";
    metric "wire.decode_ns" "ns";
    metric "wire.encode_ns" "ns";
    metric "wire.bytes_per_op" "bytes";
    metric "policy.choice_ns" "ns";
    metric "gc.minor_words_per_bn_pkt" "words";
    metric "gc.minor_words_per_op" "words";
    metric "gc.major_collections" "count";
    metric "gc.top_heap_mb" "MB";
    metric "loadgen.late_us_p99" "us";
    metric "loadgen.max_backlog" "count";
    metric "host.cpu_per_wall" "ratio";
    metric "host.speed" "ratio";
    metric "trace.overhead" "ratio";
    metric "service.p99_us" "us";
    metric "service.samples" "count";
    metric "bench.error_rate" "ratio";
  ]

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

(* {2 Result line} *)

let result_json ~correct ~attempted ~failed metrics =
  let open Phi_util.Json in
  to_string ~indent:0
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (m, v) -> (m.name, Obj [ ("value", float v); ("unit", String m.unit_) ]))
                metrics) );
       ])
