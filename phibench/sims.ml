(* The three simulator workloads.  Every call into the simulator goes
   through its experiment-level entry points ([Scenario.run],
   [Scenario.run_zoo], [Parking_lot.run]); layers are observed through
   the public hooks those take ([cc_factory], [observe], [on_conn_end])
   and the public counters of the objects the hooks hand out. *)

module Kit = Phibench_kit.Kit
module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes
module Link = Phi_net.Link
module Packet = Phi_net.Packet
module Topology = Phi_net.Topology
module Zoo = Topology.Zoo
module Cc = Phi_tcp.Cc
module Cubic = Phi_tcp.Cubic
module Flow = Phi_tcp.Flow
module Scenario = Phi_experiments.Scenario
module Dynamics = Phi_experiments.Dynamics
module Parking_lot = Phi_experiments.Parking_lot
module Remy_cc = Phi_remy.Remy_cc
module Compiled_table = Phi_remy.Compiled_table
module Context_server = Phi.Context_server

(* {2 Tracing probe}

   A traced cell wraps every controller callback and every in-simulation
   context-server call in a pair of clock reads.  The wrappers pass the
   record the sender holds straight through, so the simulation is
   bit-identical to the untraced one; the benchmark checks that through
   the cell fingerprints. *)

type probe = {
  mutable cubic_acks : int;
  mutable cubic_ack_ns : int;
  mutable remy_acks : int;
  mutable remy_ack_ns : int;
  mutable cc_other_ns : int;  (* on_loss + on_timeout, any algorithm *)
  mutable timeouts : int;
  mutable ctx_lookups : int;
  mutable ctx_lookup_ns : int;
  mutable ctx_reports : int;
  mutable ctx_report_ns : int;
}

let probe () =
  {
    cubic_acks = 0;
    cubic_ack_ns = 0;
    remy_acks = 0;
    remy_ack_ns = 0;
    cc_other_ns = 0;
    timeouts = 0;
    ctx_lookups = 0;
    ctx_lookup_ns = 0;
    ctx_reports = 0;
    ctx_report_ns = 0;
  }

let wrap_cc p ~remy (cc : Cc.t) =
  let on_ack t ~now ~rtt ~sent_at ~newly_acked =
    let t0 = Kit.now_ns () in
    cc.Cc.on_ack t ~now ~rtt ~sent_at ~newly_acked;
    let dt = Kit.now_ns () - t0 in
    if remy then (
      p.remy_acks <- p.remy_acks + 1;
      p.remy_ack_ns <- p.remy_ack_ns + dt)
    else (
      p.cubic_acks <- p.cubic_acks + 1;
      p.cubic_ack_ns <- p.cubic_ack_ns + dt)
  in
  let on_loss t ~now =
    let t0 = Kit.now_ns () in
    cc.Cc.on_loss t ~now;
    p.cc_other_ns <- p.cc_other_ns + (Kit.now_ns () - t0)
  in
  let on_timeout t ~now =
    let t0 = Kit.now_ns () in
    cc.Cc.on_timeout t ~now;
    p.timeouts <- p.timeouts + 1;
    p.cc_other_ns <- p.cc_other_ns + (Kit.now_ns () - t0)
  in
  { cc with Cc.on_ack; on_loss; on_timeout }

let timed p ~lookup f =
  match p with
  | None -> f ()
  | Some p ->
    let t0 = Kit.now_ns () in
    let r = f () in
    let dt = Kit.now_ns () - t0 in
    if lookup then (
      p.ctx_lookups <- p.ctx_lookups + 1;
      p.ctx_lookup_ns <- p.ctx_lookup_ns + dt)
    else (
      p.ctx_reports <- p.ctx_reports + 1;
      p.ctx_report_ns <- p.ctx_report_ns + dt);
    r

(* {2 Cells} *)

type ctx_stats = { flushes : int; evictions : int; resident : int }

type cell = {
  sim_s : float;  (** simulated time the cell advanced *)
  events : int;  (** engine events executed, ticks excluded *)
  setup_s : float;  (** host seconds from the cell's start to its first simulated event *)
  build_s : float;  (** of which the topology build *)
  chunks : float array;
      (** host seconds per slice of the cell: each simulated [tick_s]
          from the first event on, and the harvest *)
  fingerprint : string;
  bn_pkts : int;  (** packets delivered by the bottleneck links *)
  bn_offered : int;
  bn_drops : int;
  ecn_marks : int;
  queue_wait_s : float;  (** total bottleneck queue wait *)
  bn_util : float;  (** mean bottleneck busy fraction *)
  connections : int;
  retx : int;
  segments : int;
  pool_high_water : int;
  boundary_pkts : int;
  ctx : ctx_stats option;
}

(* What the [observe] hook hands out, kept for the harvest, and the
   host clock at the cell's start, when its topology was built, and at
   every tick. *)
type observed = {
  started : int;
  mutable built : int;
  mutable engine : Engine.t option;
  mutable links : Link.t array;
  mutable pool : Packet.pool option;
  mutable server : Context_server.t option;
  mutable stamps : int list;  (* newest first *)
  mutable ticks : int;
}

let observed () =
  {
    started = Kit.now_ns ();
    built = 0;
    engine = None;
    links = [||];
    pool = None;
    server = None;
    stamps = [];
    ticks = 0;
  }

(* A cell is timed in slices of [tick_s] simulated seconds: an engine
   event at time 0 and then every [tick_s] reads the host clock.  The
   ticks touch no simulation state, and events at one instant run in
   scheduling order, so the cell's own events run exactly as without
   them.  The tick at time 0 is scheduled from the [observe] hook, ahead
   of every event of the cell, so it runs first: everything before it —
   topology, transport, the sources' start — is the cell's set-up.
   Slices are the same work in every round, which lets the benchmark
   keep each slice's best time (see the estimator in phibench.ml). *)
let tick_s = 1.

let install_ticks obs engine ~until =
  obs.built <- Kit.now_ns ();
  obs.engine <- Some engine;
  let rec tick () =
    obs.stamps <- Kit.now_ns () :: obs.stamps;
    obs.ticks <- obs.ticks + 1;
    if Engine.now engine +. tick_s < until then ignore (Engine.schedule_after engine ~delay:tick_s tick)
  in
  ignore (Engine.schedule_after engine ~delay:0. tick)

let chunks obs =
  let stamps = Array.of_list (List.rev (Kit.now_ns () :: obs.stamps)) in
  Array.init (Array.length stamps - 1) (fun i -> Kit.seconds_of_ns (stamps.(i + 1) - stamps.(i)))

let link_sum f links = Array.fold_left (fun acc l -> acc + f l) 0 links

let harvest obs ~sim_s ~connections ~records ~summary =
  let chunks = chunks obs in
  let engine = match obs.engine with Some e -> e | None -> failwith "observe hook never ran" in
  let first_event = List.nth obs.stamps (List.length obs.stamps - 1) in
  let links = obs.links in
  let events = Engine.executed engine - obs.ticks in
  let bn_pkts = link_sum Link.packets_delivered links in
  let bn_drops = link_sum Link.drops links in
  let queue_wait_s = Array.fold_left (fun acc l -> acc +. Link.total_queue_wait l) 0. links in
  let bn_util =
    if Array.length links = 0 then 0.
    else
      Array.fold_left (fun acc l -> acc +. (Link.busy_time l /. sim_s)) 0. links
      /. float_of_int (Array.length links)
  in
  let retx, segments =
    List.fold_left
      (fun (r, s) (st : Flow.conn_stats) ->
        (r + st.Flow.retransmitted_segments, s + st.Flow.segments))
      (0, 0) records
  in
  let ctx =
    Option.map
      (fun s ->
        {
          flushes = Context_server.flush_count s;
          evictions = Context_server.eviction_count s;
          resident = Context_server.resident_paths s;
        })
      obs.server
  in
  {
    sim_s;
    events;
    setup_s = Kit.seconds_of_ns (first_event - obs.started);
    build_s = Kit.seconds_of_ns (obs.built - obs.started);
    chunks;
    fingerprint =
      Printf.sprintf "%s ev=%d bn=%d drops=%d conns=%d" summary events bn_pkts bn_drops connections;
    bn_pkts;
    bn_offered = link_sum Link.packets_offered links;
    bn_drops;
    ecn_marks = link_sum Link.ecn_marks links;
    queue_wait_s;
    bn_util;
    connections;
    retx;
    segments;
    pool_high_water = (match obs.pool with Some p -> Packet.high_water p | None -> 0);
    boundary_pkts = 0;
    ctx;
  }

(* {3 dumbbell_sweep}

   Cubic cells of the Table 2 grid on the paper dumbbell, every grid
   point at Figure 2a's low utilization and at 2b's high utilization.
   The grid points are fixed so that a seed changes the traffic, not
   the amount of work. *)

let dumbbell_points =
  List.map
    (fun (ssthresh, init_w, beta) ->
      { Cubic.default_params with initial_ssthresh = ssthresh; initial_cwnd = init_w; beta })
    [ (2., 2., 0.1); (16., 16., 0.5); (64., 2., 0.2); (256., 256., 0.9) ]

type dumbbell_cell = { params : Cubic.params; config : Scenario.config }

let dumbbell_cells ~seed =
  List.concat
    (List.mapi
       (fun i params ->
         List.mapi
           (fun j (base : Scenario.config) ->
             { params; config = { base with Scenario.seed = (seed * 1000) + (2 * i) + j } })
           [ Scenario.low_utilization; Scenario.high_utilization ])
       dumbbell_points)

let run_dumbbell ?probe (c : dumbbell_cell) =
  let obs = observed () in
  let cc_factory =
    match probe with
    | None -> fun _ () -> Cubic.make c.params
    | Some p -> fun _ () -> wrap_cc p ~remy:false (Cubic.make c.params)
  in
  let observe engine (db : Topology.dumbbell) =
    install_ticks obs engine ~until:c.config.Scenario.duration_s;
    obs.links <- [| db.Topology.bottleneck |];
    obs.pool <- Some db.Topology.pool
  in
  let r = Scenario.run ~cc_factory ~observe c.config in
  harvest obs ~sim_s:c.config.Scenario.duration_s ~connections:r.Scenario.connections
    ~records:r.Scenario.records
    ~summary:
      (Printf.sprintf "%h %h %h %h" r.Scenario.throughput_bps r.Scenario.queueing_delay_s
         r.Scenario.loss_rate r.Scenario.utilization)

(* {3 wan_dynamics}

   [Scenario.run_zoo] over {cubic, remy-phi} x {wan, dumbbell} x
   {flap, incast} with RED+ECN on the bottlenecks.  remy-phi samples a
   context server living inside the simulation at every connection
   start and reports to it at every connection end. *)

type algo = Cubic_algo | Remy_phi

type zoo_cell = { algo : algo; topology : string; dynamics : string; zoo_seed : int }

let zoo_duration_s = 30.

let zoo_cells ~seed =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun topology ->
          List.map (fun dynamics -> (algo, topology, dynamics)) [ "flap"; "incast" ])
        [ "wan"; "dumbbell" ])
    [ Cubic_algo; Remy_phi ]
  |> List.mapi (fun i (algo, topology, dynamics) ->
         { algo; topology; dynamics; zoo_seed = (seed * 1000) + i })

let run_zoo_cell ?probe ~table (c : zoo_cell) =
  let zoo = Zoo.by_name c.topology in
  let obs = observed () in
  let observe_links engine built =
    install_ticks obs engine ~until:zoo_duration_s;
    obs.links <- Array.map (Topology.link_of built) zoo.Zoo.bottlenecks;
    obs.pool <- Some (Topology.island_pool built ~island:0)
  in
  let wrap ~remy cc = match probe with None -> cc | Some p -> wrap_cc p ~remy cc in
  let run =
    Scenario.run_zoo ~aqm:Scenario.Red_ecn ~dynamics:(Dynamics.by_name c.dynamics)
      ~duration_s:zoo_duration_s ~seed:c.zoo_seed
  in
  let r =
    match c.algo with
    | Cubic_algo ->
      run ~observe:observe_links
        ~cc_factory:(fun _ () -> wrap ~remy:false (Cubic.make Cubic.default_params))
        zoo
    | Remy_phi ->
      let util_feed : Remy_cc.util_feed ref = ref `None in
      let path = zoo.Zoo.name in
      let observe engine built =
        observe_links engine built;
        let server = Context_server.create engine ~capacity_bps:zoo.Zoo.bottleneck_bw_bps () in
        obs.server <- Some server;
        util_feed :=
          `At_start
            (fun () ->
              timed probe ~lookup:true (fun () -> (Context_server.lookup server ~path).Phi.Context.utilization))
      in
      let on_conn_end stats =
        match obs.server with
        | Some server -> timed probe ~lookup:false (fun () -> Context_server.report_stats server ~path stats)
        | None -> ()
      in
      run ~observe ~on_conn_end
        ~cc_factory:(fun _ () -> wrap ~remy:true (Remy_cc.make ~table ~util:!util_feed ()))
        zoo
  in
  harvest obs ~sim_s:zoo_duration_s ~connections:r.Scenario.z_connections
    ~records:r.Scenario.z_records
    ~summary:
      (Printf.sprintf "%h %h %h %h %h" r.Scenario.z_throughput_bps r.Scenario.z_delay_s
         r.Scenario.z_loss_rate r.Scenario.z_utilization r.Scenario.z_jain)

(* The Remy-Phi rule table, compiled: a set-up step of the matrix that
   happens before its first cell. *)
let compile_table () = Compiled_table.compile (Phi_remy.Pretrained.remy_phi ())

(* {3 parking_lot_pdes}

   The default 1000-sender, 4-island lot.  The lot is run for
   [lot_duration_s] of simulated time instead of its default 8 s so
   that several lots fit into one measured run; [lot_jobs] is the
   domain count of the traced run's parallel lots. *)

let lot_duration_s = 2.
let lot_jobs = 2

let lot_spec ~seed = { Parking_lot.default_spec with duration_s = lot_duration_s; seed }

let lot_zoo_spec (s : Parking_lot.spec) =
  {
    Zoo.segments = s.Parking_lot.segments;
    local_pairs = s.Parking_lot.local_pairs;
    long_flows = s.Parking_lot.long_flows;
    hop_bw_bps = s.Parking_lot.hop_bw_bps;
    hop_delay_s = s.Parking_lot.hop_delay_s;
    cut_bw_bps = s.Parking_lot.cut_bw_bps;
    cut_delay_s = s.Parking_lot.cut_delay_s;
    pl_access_bw_bps = s.Parking_lot.access_bw_bps;
    pl_access_delay_s = s.Parking_lot.access_delay_s;
    buffer_pkts = s.Parking_lot.buffer_pkts;
  }

(* The lot's own set-up happens inside [Parking_lot.run], which offers
   no hook to stamp it from.  So before each lot the benchmark times the
   same partitioned topology build from outside, and [run_lot] takes
   that time as the lot's set-up; the lot's own time still includes its
   real set-up. *)
let build_lot spec () =
  Topology.build_partitioned (Pdes.create ()) (Zoo.parking_lot ~spec:(lot_zoo_spec spec) ()).Zoo.graph

let run_lot ~jobs ~build_s spec =
  let t0 = Kit.now_ns () in
  let r = Parking_lot.run ~jobs ~spec () in
  let wall = Kit.seconds_of_ns (Kit.now_ns () - t0) in
  let hops = r.Parking_lot.hop_stats in
  let sum f = Array.fold_left (fun acc h -> acc + f h) 0 hops in
  let bn_pkts = sum (fun h -> h.Parking_lot.delivered) in
  let bn_drops = sum (fun h -> h.Parking_lot.drops) in
  ( {
      sim_s = spec.Parking_lot.duration_s;
      events = r.Parking_lot.events;
      setup_s = build_s;
      build_s;
      chunks = [| wall |];
      fingerprint = r.Parking_lot.fingerprint;
      bn_pkts;
      bn_offered = bn_pkts + bn_drops;
      bn_drops;
      ecn_marks = 0;
      queue_wait_s = 0.;
      bn_util =
        Array.fold_left (fun acc h -> acc +. h.Parking_lot.utilization) 0. hops
        /. float_of_int (Stdlib.max 1 (Array.length hops));
      connections = Parking_lot.senders spec;
      retx = r.Parking_lot.retransmitted;
      segments = 0;
      pool_high_water = 0;
      boundary_pkts = r.Parking_lot.boundary_packets;
      ctx = None;
    },
    r.Parking_lot.window_s )

(* {2 Cost ladder}

   Bare engine and link loops: what one event and one carried packet
   cost with nothing above them, the floor [core.ns_per_bn_pkt] is read
   against. *)

let ladder_engine_ns_per_event () =
  let n = 1_000_000 in
  let engine = Engine.create () in
  let left = ref n in
  let rec tick () =
    decr left;
    if !left > 0 then ignore (Engine.schedule_after engine ~delay:1e-6 tick)
  in
  ignore (Engine.schedule_after engine ~delay:1e-6 tick);
  float_of_int (Kit.time_ns (fun () -> Engine.run engine)) /. float_of_int n

let ladder_link_ns_per_pkt () =
  let batches = 100 and batch = 5_000 in
  let engine = Engine.create () in
  let pool = Packet.create_pool () in
  let link = Link.create engine pool ~bandwidth_bps:1e10 ~delay_s:1e-4 ~capacity_pkts:batch in
  Link.set_receiver link (fun h -> Packet.release pool h);
  let ns =
    Kit.time_ns (fun () ->
        for b = 0 to batches - 1 do
          for i = 0 to batch - 1 do
            Link.send link
              (Packet.acquire_data pool ~flow:0 ~src:0 ~dst:1 ~seq:((b * batch) + i)
                 ~now:(Engine.now engine) ~retransmit:false)
          done;
          Engine.run engine
        done)
  in
  if Link.packets_delivered link <> batches * batch then failwith "ladder: link lost packets";
  float_of_int ns /. float_of_int (batches * batch)
