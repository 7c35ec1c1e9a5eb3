(* The context_service workload: the connection-start lookups and
   connection-end reports of a Section 2.1 cloud trace, served through
   the wire format by one sharded context server.  No packets are
   simulated; the server's clock is a bare engine advanced to each
   message's trace time, so epoch commits, TTL sweeps and LRU evictions
   run between (and inside) the timed calls. *)

module Kit = Phibench_kit.Kit
module Engine = Phi_sim.Engine
module Prng = Phi_util.Prng
module Cloud_trace = Phi_workload.Cloud_trace
module Context_server = Phi.Context_server
module Context_wire = Phi.Context_wire
module Context = Phi.Context
module Policy = Phi.Policy
module Cc_algo = Phi.Cc_algo

let flows = 30_000
let shards = 8
let epoch_s = 1.
let ttl_epochs = 10

(* Fewer resident slots than the trace has distinct prefixes, so the
   LRU sweep evicts. *)
let max_paths_per_shard = 256

(* The offered rate of the open-loop passes, messages per second. *)
let open_loop_rate = 100_000.

type trace = {
  times : floatarray;  (** trace time each message is sent at *)
  wires : string array;  (** pre-encoded request *)
  lookups : bool array;
  span_s : float;  (** trace seconds from the first to the last connection start *)
}

(* A fixed fleet policy over all five registered algorithms, so
   decoded contexts exercise both the learned buckets and the
   heuristic fallback. *)
let policy () =
  let p = Policy.create () in
  let bucket u n q = { Context.u_bucket = u; n_bucket = n; q_bucket = q } in
  List.iter
    (fun (b, choice) -> Policy.learn p b choice)
    [
      (bucket 0 0 0, Cc_algo.Remy);
      (bucket 0 1 0, Cc_algo.Remy_phi);
      (bucket 1 2 1, Cc_algo.Vegas);
      (bucket 2 3 1, Cc_algo.Reno 1.);
      (bucket 3 3 2, Cc_algo.Cubic Phi_tcp.Cubic.default_params);
    ];
  Policy.Compiled.compile p

let algo_slot = function
  | Cc_algo.Cubic _ -> 0
  | Cc_algo.Reno _ -> 1
  | Cc_algo.Vegas -> 2
  | Cc_algo.Remy -> 3
  | Cc_algo.Remy_phi -> 4

(* Trace generation and encoding: the workload's setup. *)
let generate ~seed =
  let rng = Prng.create ~seed in
  let config =
    {
      Cloud_trace.default_config with
      Cloud_trace.horizon_minutes =
        2 + int_of_float (1.3 *. float_of_int flows /. Cloud_trace.default_config.flows_per_minute);
    }
  in
  let msgs = ref [] and emitted = ref 0 in
  let exception Enough in
  (try
     Cloud_trace.iter rng config (fun flow ->
         if !emitted >= flows then raise Enough;
         let i = !emitted in
         incr emitted;
         let path = "subnet-" ^ string_of_int (Cloud_trace.dst_subnet flow) in
         let max_staleness = if i land 3 = 0 then 0 else 2 in
         let lookup = Context_wire.Lookup { path; max_staleness } in
         let report =
           Context_wire.Report
             {
               path;
               bytes = flow.Cloud_trace.bytes;
               duration_s = flow.Cloud_trace.duration_s;
               min_rtt = 0.02;
               mean_rtt = 0.02 +. (float_of_int (i land 15) *. 1e-4);
               retransmitted = (if i mod 50 = 0 then 1 else 0);
               segments = flow.Cloud_trace.packets;
             }
         in
         let start = flow.Cloud_trace.start_s in
         msgs := (start +. flow.Cloud_trace.duration_s, (2 * i) + 1, report) :: (start, 2 * i, lookup) :: !msgs)
   with Enough -> ());
  if !emitted < flows then failwith "context trace too short";
  let msgs = Array.of_list !msgs in
  Array.sort
    (fun (ta, sa, _) (tb, sb, _) ->
      match Float.compare ta tb with 0 -> Int.compare sa sb | c -> c)
    msgs;
  let n = Array.length msgs in
  let times = Float.Array.init n (fun i -> let t, _, _ = msgs.(i) in t) in
  let starts =
    Array.to_list msgs
    |> List.filter_map (fun (t, _, req) ->
           match req with Context_wire.Lookup _ -> Some t | Context_wire.Report _ -> None)
  in
  {
    times;
    wires = Array.map (fun (_, _, req) -> Context_wire.request_to_string req) msgs;
    lookups =
      Array.map (fun (_, _, req) -> match req with Context_wire.Lookup _ -> true | _ -> false) msgs;
    span_s = List.fold_left Float.max 0. starts -. List.fold_left Float.min Float.infinity starts;
  }

(* {2 One pass}

   A pass serves the whole trace against a fresh server.  [serve i] is
   the full round trip of message [i]: the server decodes the request,
   handles it and encodes the response; the client decodes the response
   and, for a lookup, makes its compiled-policy choice.  Every response
   byte and every choice folds into an FNV checksum, the pass's
   fingerprint. *)

type layer_ns = {
  mutable decode : int;  (** request + response decodes *)
  mutable encode : int;
  mutable handle_lookup : int;
  mutable handle_report : int;
  mutable choice : int;
  mutable stalls : int;  (** handle calls over 100 us *)
}

type pass = {
  engine : Engine.t;
  server : Context_server.t;
  buf : Buffer.t;
  mutable checksum : int;
  mutable stale_answers : int;
  mutable bytes : int;
  mutable errors : string list;
  layers : layer_ns option;
}

let new_pass ~traced =
  let engine = Engine.create () in
  {
    engine;
    server =
      Context_server.create engine ~capacity_bps:1e9 ~window_s:10. ~epoch_s ~shards
        ~max_paths_per_shard ~ttl_epochs ();
    buf = Buffer.create 128;
    checksum = Kit.fnv_offset;
    stale_answers = 0;
    bytes = 0;
    errors = [];
    layers =
      (if traced then
         Some { decode = 0; encode = 0; handle_lookup = 0; handle_report = 0; choice = 0; stalls = 0 }
       else None);
  }

let error p msg = p.errors <- msg :: p.errors

let[@inline] stamp layers = match layers with None -> 0 | Some _ -> Kit.now_ns ()

let serve policy trace p i =
  let layers = p.layers in
  Engine.run ~until:(Float.Array.get trace.times i) p.engine;
  let t0 = stamp layers in
  match Context_wire.decode_request trace.wires.(i) with
  | Error e -> error p ("request decode: " ^ e)
  | Ok req ->
    let t1 = stamp layers in
    let resp = Context_server.handle p.server req in
    let t2 = stamp layers in
    Buffer.clear p.buf;
    Context_wire.encode_response p.buf resp;
    let wire = Buffer.contents p.buf in
    let t3 = stamp layers in
    let decoded = Context_wire.decode_response wire in
    let t4 = stamp layers in
    p.bytes <- p.bytes + String.length trace.wires.(i) + String.length wire;
    p.checksum <- Kit.fnv_string p.checksum wire;
    (match (req, decoded) with
    | Context_wire.Lookup { max_staleness; _ }, Ok (Context_wire.Context_of { ctx; epoch }) ->
      let slot = algo_slot (Policy.Compiled.choice_for policy ctx) in
      (match layers with Some l -> l.choice <- l.choice + (Kit.now_ns () - t4) | None -> ());
      p.checksum <- (p.checksum lxor slot) * 0x01000193 land 0xffffffff;
      let current = int_of_float (Engine.now p.engine /. epoch_s) in
      if current - epoch > Stdlib.max 0 max_staleness then
        error p
          (Printf.sprintf "message %d: epoch %d answers a staleness-%d lookup at %d" i epoch
             max_staleness current);
      if epoch < current then p.stale_answers <- p.stale_answers + 1
    | Context_wire.Report _, Ok (Context_wire.Accepted _) -> ()
    | _, Ok _ -> error p (Printf.sprintf "message %d: response of the wrong kind" i)
    | _, Error e -> error p (Printf.sprintf "message %d: response decode: %s" i e));
    match layers with
    | None -> ()
    | Some l ->
      l.decode <- l.decode + (t1 - t0) + (t4 - t3);
      l.encode <- l.encode + (t3 - t2);
      if t2 - t1 > 100_000 then l.stalls <- l.stalls + 1;
      if trace.lookups.(i) then l.handle_lookup <- l.handle_lookup + (t2 - t1)
      else l.handle_report <- l.handle_report + (t2 - t1)

let finish p =
  Context_server.flush p.server;
  Printf.sprintf "checksum=%08x lookups=%d reports=%d resident=%d evictions=%d" p.checksum
    (Context_server.lookup_count p.server)
    (Context_server.report_count p.server)
    (Context_server.resident_paths p.server)
    (Context_server.eviction_count p.server)

let messages trace = Array.length trace.wires

(* A closed-loop pass is timed in chunks of [chunk] messages, the same
   work in every pass, so the benchmark can keep each chunk's best time. *)
let chunk = 4096

let closed_loop ?(traced = false) policy trace =
  let p = new_pass ~traced in
  let n = messages trace in
  let chunks = Array.make ((n + chunk - 1) / chunk) 0. in
  let t0 = ref (Kit.now_ns ()) in
  for i = 0 to n - 1 do
    serve policy trace p i;
    if (i + 1) mod chunk = 0 || i = n - 1 then (
      let t1 = Kit.now_ns () in
      chunks.(i / chunk) <- Kit.seconds_of_ns (t1 - !t0);
      t0 := t1)
  done;
  (p, chunks)

let open_loop policy trace =
  let p = new_pass ~traced:false in
  let stats =
    Kit.open_loop ~clock:Kit.now_ns
      ~interval_ns:(int_of_float (1e9 /. open_loop_rate))
      ~n:(messages trace) (serve policy trace p)
  in
  (p, stats)
