module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes
module Invariant = Phi_sim.Invariant
module Topology = Phi_net.Topology
module Zoo = Phi_net.Topology.Zoo
module Link = Phi_net.Link
module Boundary_link = Phi_net.Boundary_link
module Packet = Phi_net.Packet
module Flow = Phi_tcp.Flow
module Sender = Phi_tcp.Sender
module Receiver = Phi_tcp.Receiver
module Cubic = Phi_tcp.Cubic
module Prng = Phi_util.Prng
module Fnv = Phi_util.Fnv

type spec = {
  segments : int;
  local_pairs : int;
  long_flows : int;
  hop_bw_bps : float;
  hop_delay_s : float;
  cut_bw_bps : float;
  cut_delay_s : float;
  access_bw_bps : float;
  access_delay_s : float;
  buffer_pkts : int;
  duration_s : float;
  seed : int;
}

(* 4 x 240 local + 40 long = 1000 senders. *)
let default_spec =
  {
    segments = 4;
    local_pairs = 240;
    long_flows = 40;
    hop_bw_bps = 500e6;
    hop_delay_s = 0.005;
    cut_bw_bps = 1e9;
    cut_delay_s = 0.010;
    access_bw_bps = 1e9;
    access_delay_s = 0.0005;
    buffer_pkts = 600;
    duration_s = 8.;
    seed = 42;
  }

let senders spec = (spec.segments * spec.local_pairs) + spec.long_flows

let zoo_spec spec =
  {
    Zoo.segments = spec.segments;
    local_pairs = spec.local_pairs;
    long_flows = spec.long_flows;
    hop_bw_bps = spec.hop_bw_bps;
    hop_delay_s = spec.hop_delay_s;
    cut_bw_bps = spec.cut_bw_bps;
    cut_delay_s = spec.cut_delay_s;
    pl_access_bw_bps = spec.access_bw_bps;
    pl_access_delay_s = spec.access_delay_s;
    buffer_pkts = spec.buffer_pkts;
  }

type hop_stat = {
  delivered : int;
  drops : int;
  bytes : int;
  utilization : float;
}

type result = {
  jobs : int;
  islands : int;
  window_s : float;
  wall_s : float;
  events : int;
  events_per_s : float;
  fingerprint : string;
  long_goodput_bps : float;
  local_goodput_bps : float;
  hop_stats : hop_stat array;
  boundary_packets : int;
  retransmitted : int;
}

(* The multi-bottleneck parking lot, partitioned one island per
   segment: [Zoo.parking_lot] describes the graph (a bottleneck hop per
   segment with a reverse twin for ACKs, [local_pairs] host pairs
   loading exactly that hop, long flows traversing every segment) and
   [Topology.build_partitioned] realizes each island cut as a pair of
   [Boundary_link]s whose 10 ms propagation delay is the lookahead that
   buys the parallel window. *)
let run ?(jobs = 1) ?(spec = default_spec) () =
  if spec.segments < 1 then invalid_arg "Parking_lot.run: need at least one segment";
  if spec.local_pairs < 0 || spec.long_flows < 0 then
    invalid_arg "Parking_lot.run: negative flow counts";
  if jobs < 1 then invalid_arg "Parking_lot.run: jobs must be >= 1";
  let s_count = spec.segments in
  let coordinator = Pdes.create () in
  let zoo = Zoo.parking_lot ~spec:(zoo_spec spec) () in
  let built = Topology.build_partitioned coordinator zoo.Zoo.graph in
  (* Transport.  Flow ids are allocated in the zoo's flow-path order
     (all local pairs segment-major, then the long flows — the order
     the ad-hoc builder always used), so ids — and the Prng draws
     staggering the starts — are identical whatever the worker count. *)
  let flows = Flow.allocator () in
  let rng = Prng.create ~seed:spec.seed in
  let params = Cubic.default_params in
  let tcp =
    Array.map
      (fun (fp : Zoo.flow_path) ->
        let flow = Flow.fresh flows in
        let _receiver =
          Receiver.create
            (Topology.node_engine built ~id:fp.Zoo.dst)
            ~node:(Topology.node built ~id:fp.Zoo.dst)
            ~flow ~peer:fp.Zoo.src
        in
        let engine = Topology.node_engine built ~id:fp.Zoo.src in
        let sender =
          Sender.create engine
            ~node:(Topology.node built ~id:fp.Zoo.src)
            ~flow ~dst:fp.Zoo.dst ~cc:(Cubic.make params)
            ~total_segments:Sender.persistent_total ~source_index:flow ()
        in
        ignore
          (Engine.schedule_after engine ~delay:(Prng.float rng) (fun () -> Sender.start sender));
        sender)
      zoo.Zoo.flow_paths
  in
  (* Execute. *)
  let jobs_used = if Invariant.enabled () then 1 else Stdlib.min jobs s_count in
  let window_s = Pdes.lookahead_s coordinator in
  let window_s = if Float.is_finite window_s then window_s else spec.duration_s in
  let t0 = Monotonic_clock.now () in
  Pdes.run ~jobs:jobs_used ~window_s ~until:spec.duration_s coordinator;
  let wall_s = Float.max 1e-9 (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9) in
  (* Harvest (serial again). *)
  let events = Topology.total_events built in
  let labeled kind s = Topology.link_of built (Topology.find_link built ~label:(Printf.sprintf "%s:%d" kind s)) in
  let hop_stats =
    Array.init s_count (fun s ->
        let fwd = labeled "hop_fwd" s and rev = labeled "hop_rev" s in
        {
          delivered = Link.packets_delivered fwd + Link.packets_delivered rev;
          drops = Link.drops fwd + Link.drops rev;
          bytes = Link.bytes_delivered fwd + Link.bytes_delivered rev;
          utilization = Float.min 1. (Link.busy_time fwd /. spec.duration_s);
        })
  in
  let cut kind s =
    match Topology.boundary_of built (Topology.find_link built ~label:(Printf.sprintf "%s:%d" kind s)) with
    | Some b -> b
    | None -> assert false (* every cut link crosses islands by construction *)
  in
  let f_cut = Array.init (s_count - 1) (cut "f_cut") in
  let r_cut = Array.init (s_count - 1) (cut "r_cut") in
  let boundary_packets =
    Array.fold_left (fun acc b -> acc + Boundary_link.delivered b) 0 f_cut
    + Array.fold_left (fun acc b -> acc + Boundary_link.delivered b) 0 r_cut
  in
  let goodput stats_list =
    List.fold_left
      (fun acc (st : Flow.conn_stats) ->
        acc +. (float_of_int (st.Flow.segments * Packet.mss * 8) /. spec.duration_s))
      0. stats_list
  in
  let n_local = s_count * spec.local_pairs in
  let local_stats =
    Array.to_list (Array.map Sender.stats (Array.sub tcp 0 n_local))
  in
  let long_stats =
    Array.to_list (Array.map Sender.stats (Array.sub tcp n_local spec.long_flows))
  in
  let retransmitted =
    List.fold_left
      (fun acc (st : Flow.conn_stats) -> acc + st.Flow.retransmitted_segments)
      0
      (local_stats @ long_stats)
  in
  (* Determinism fingerprint: everything observable about the run that
     must not depend on the worker count — link counters, boundary
     crossings, per-flow progress, and the engines' event counts. *)
  let checksum =
    let h = ref Fnv.offset in
    Array.iter
      (fun (hs : hop_stat) ->
        h := Fnv.fold_int !h hs.delivered;
        h := Fnv.fold_int !h hs.drops;
        h := Fnv.fold_int !h hs.bytes)
      hop_stats;
    Array.iter (fun b -> h := Fnv.fold_int !h (Boundary_link.delivered b)) f_cut;
    Array.iter (fun b -> h := Fnv.fold_int !h (Boundary_link.delivered b)) r_cut;
    List.iter
      (fun (st : Flow.conn_stats) ->
        h := Fnv.fold_int !h st.Flow.segments;
        h := Fnv.fold_int !h st.Flow.retransmitted_segments)
      (local_stats @ long_stats);
    h := Fnv.fold_int !h events;
    !h
  in
  let fingerprint =
    Printf.sprintf "senders=%d events=%d boundary=%d retx=%d checksum=%08x" (senders spec)
      events boundary_packets retransmitted checksum
  in
  Array.iter Sender.abort tcp;
  {
    jobs = jobs_used;
    islands = s_count;
    window_s;
    wall_s;
    events;
    events_per_s = float_of_int events /. wall_s;
    fingerprint;
    long_goodput_bps = goodput long_stats;
    local_goodput_bps = goodput local_stats;
    hop_stats;
    boundary_packets;
    retransmitted;
  }
