module Engine = Phi_sim.Engine
module Pdes = Phi_sim.Pdes

type spec = {
  n : int;
  bottleneck_bw_bps : float;
  rtt_s : float;
  buffer_bdp_factor : float;
  access_bw_bps : float;
  access_delay_s : float;
}

let paper_spec =
  {
    n = 8;
    bottleneck_bw_bps = 15e6;
    rtt_s = 0.150;
    buffer_bdp_factor = 5.;
    access_bw_bps = 1e9;
    access_delay_s = 0.001;
  }

let bdp_packets spec =
  let bdp_bytes = spec.bottleneck_bw_bps *. spec.rtt_s /. 8. in
  Stdlib.max 1 (int_of_float (Float.round (bdp_bytes /. float_of_int Packet.mss)))

let buffer_packets spec =
  Stdlib.max 1 (int_of_float (Float.round (spec.buffer_bdp_factor *. float_of_int (bdp_packets spec))))

type dumbbell = {
  engine : Engine.t;
  spec : spec;
  pool : Packet.pool;
  senders : Node.t array;
  receivers : Node.t array;
  left_router : Node.t;
  right_router : Node.t;
  bottleneck : Link.t;
  reverse_bottleneck : Link.t;
}

let sender_id _t i = i
let receiver_id t i = Array.length t.senders + i

(* One-way bottleneck propagation delay such that the total two-way path
   delay (two access links each way plus the bottleneck each way) equals
   the requested RTT. *)
let bottleneck_delay spec =
  let one_way = spec.rtt_s /. 2. in
  let d = one_way -. (2. *. spec.access_delay_s) in
  if d <= 0. then invalid_arg "Topology.dumbbell: rtt too small for access delays";
  d

let cut_lookahead_s = bottleneck_delay

let dumbbell engine spec =
  if spec.n < 1 then invalid_arg "Topology.dumbbell: need at least one sender";
  let n = spec.n in
  let pool = Packet.create_pool () in
  let senders = Array.init n (fun i -> Node.create engine pool ~id:i) in
  let receivers = Array.init n (fun i -> Node.create engine pool ~id:(n + i)) in
  let left_router = Node.create engine pool ~id:(2 * n) in
  let right_router = Node.create engine pool ~id:((2 * n) + 1) in
  let access_capacity = 10_000 in
  let access ~from ~to_ =
    let link =
      Link.create engine pool ~bandwidth_bps:spec.access_bw_bps ~delay_s:spec.access_delay_s
        ~capacity_pkts:access_capacity
    in
    Link.set_receiver link (Node.receive to_);
    ignore from;
    link
  in
  let bneck_delay = bottleneck_delay spec in
  let capacity = buffer_packets spec in
  let bottleneck =
    Link.create engine pool ~bandwidth_bps:spec.bottleneck_bw_bps ~delay_s:bneck_delay
      ~capacity_pkts:capacity
  in
  Link.set_receiver bottleneck (Node.receive right_router);
  let reverse_bottleneck =
    Link.create engine pool ~bandwidth_bps:spec.bottleneck_bw_bps ~delay_s:bneck_delay
      ~capacity_pkts:capacity
  in
  Link.set_receiver reverse_bottleneck (Node.receive left_router);
  (* Wire access links and routes in both directions. *)
  Array.iter
    (fun sender ->
      let up = access ~from:sender ~to_:left_router in
      Node.set_default_route sender up;
      let down = access ~from:left_router ~to_:sender in
      Node.add_route left_router ~dst:(Node.id sender) down)
    senders;
  Array.iter
    (fun receiver ->
      let down = access ~from:right_router ~to_:receiver in
      Node.add_route right_router ~dst:(Node.id receiver) down;
      let up = access ~from:receiver ~to_:right_router in
      Node.set_default_route receiver up)
    receivers;
  (* Traffic crossing the core: receivers live behind the right router and
     senders behind the left one. *)
  Node.set_default_route left_router bottleneck;
  Node.set_default_route right_router reverse_bottleneck;
  {
    engine;
    spec;
    pool;
    senders;
    receivers;
    left_router;
    right_router;
    bottleneck;
    reverse_bottleneck;
  }

(* {2 The general graph builder}

   A [Graph.t] is a pure description — node ids with island assignments,
   directed links with parameters, and routing entries — with no engine
   attached.  [build] realizes it serially on one engine;
   [build_partitioned] realizes it across [Pdes] islands, turning every
   cross-island link into a {!Boundary_link}.  Keeping description and
   realization separate is what lets one topology run serial, pool-fanned
   (each worker realizes its own copy) and partitioned without three
   builders drifting apart. *)

module Graph = struct
  type link_spec = {
    l_src : int;
    l_dst : int;
    l_bw : float;
    l_delay : float;
    l_cap : int;
    l_label : string;
  }

  type route_spec = { r_at : int; r_dst : int option; r_via : int }

  type t = {
    mutable nodes_rev : int list;  (* ids, reversed insertion order *)
    mutable n_nodes : int;
    mutable links_rev : link_spec list;
    mutable n_links : int;
    mutable routes_rev : route_spec list;
    node_island : (int, int) Hashtbl.t;
    mutable max_island : int;
  }

  let create () =
    {
      nodes_rev = [];
      n_nodes = 0;
      links_rev = [];
      n_links = 0;
      routes_rev = [];
      node_island = Hashtbl.create 64;
      max_island = 0;
    }

  let island_of t id =
    match Hashtbl.find_opt t.node_island id with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Topology.Graph: unknown node id %d" id)

  let add_node t ?(island = 0) id =
    if island < 0 then invalid_arg "Topology.Graph.add_node: negative island";
    if Hashtbl.mem t.node_island id then
      invalid_arg (Printf.sprintf "Topology.Graph.add_node: duplicate node id %d" id);
    Hashtbl.replace t.node_island id island;
    if island > t.max_island then t.max_island <- island;
    t.nodes_rev <- id :: t.nodes_rev;
    t.n_nodes <- t.n_nodes + 1

  let add_link t ?(label = "") ~src ~dst ~bandwidth_bps ~delay_s ~capacity_pkts () =
    ignore (island_of t src);
    ignore (island_of t dst);
    if bandwidth_bps <= 0. then invalid_arg "Topology.Graph.add_link: bandwidth must be positive";
    if delay_s < 0. then invalid_arg "Topology.Graph.add_link: negative delay";
    if capacity_pkts < 1 then invalid_arg "Topology.Graph.add_link: capacity must be >= 1";
    let ix = t.n_links in
    t.links_rev <-
      { l_src = src; l_dst = dst; l_bw = bandwidth_bps; l_delay = delay_s;
        l_cap = capacity_pkts; l_label = label }
      :: t.links_rev;
    t.n_links <- ix + 1;
    ix

  let check_via t ~at ~via =
    if via < 0 || via >= t.n_links then
      invalid_arg (Printf.sprintf "Topology.Graph: link index %d out of range" via);
    ignore (island_of t at)

  let add_route t ~at ~dst ~via =
    check_via t ~at ~via;
    t.routes_rev <- { r_at = at; r_dst = Some dst; r_via = via } :: t.routes_rev

  let set_default_route t ~at ~via =
    check_via t ~at ~via;
    t.routes_rev <- { r_at = at; r_dst = None; r_via = via } :: t.routes_rev

  let n_nodes t = t.n_nodes
  let n_links t = t.n_links
  let islands t = t.max_island + 1
  let links t = Array.of_list (List.rev t.links_rev)
  let node_ids t = Array.of_list (List.rev t.nodes_rev)
  let routes t = Array.of_list (List.rev t.routes_rev)
  let is_cut t l = island_of t l.l_src <> island_of t l.l_dst

  (* The minimum propagation delay over cross-island links — the
     lookahead a partitioned realization yields, hence the largest
     window [Pdes.run] will accept ([infinity] when nothing crosses). *)
  let cut_lookahead_s t =
    List.fold_left
      (fun acc l -> if is_cut t l then Float.min acc l.l_delay else acc)
      Float.infinity t.links_rev
end

type conduit = Direct of Link.t | Boundary of Boundary_link.t

type built = {
  graph : Graph.t;
  engines : Engine.t array;  (* one per island (partitioned) or one total (serial) *)
  pools : Packet.pool array;
  islands : Pdes.island array;  (* [||] when built serially *)
  node_tbl : (int, Node.t) Hashtbl.t;
  conduits : conduit array;
  labels : (string, int) Hashtbl.t;
}

let node b ~id =
  match Hashtbl.find_opt b.node_tbl id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Topology.node: unknown node id %d" id)

let island_engine b ~island =
  if Array.length b.islands = 0 then b.engines.(0) else b.engines.(island)

let island_pool b ~island =
  if Array.length b.islands = 0 then b.pools.(0) else b.pools.(island)

let node_engine b ~id = island_engine b ~island:(Graph.island_of b.graph id)
let node_pool b ~id = island_pool b ~island:(Graph.island_of b.graph id)

let link_of b ix =
  match b.conduits.(ix) with Direct l -> l | Boundary bl -> Boundary_link.egress bl

let boundary_of b ix = match b.conduits.(ix) with Direct _ -> None | Boundary bl -> Some bl

let find_link b ~label =
  match Hashtbl.find_opt b.labels label with
  | Some ix -> ix
  | None -> invalid_arg (Printf.sprintf "Topology.find_link: no link labeled %S" label)

let islands_of b = b.islands
let engines b = b.engines
let total_events b = Array.fold_left (fun acc e -> acc + Engine.executed e) 0 b.engines

(* Shared realization core.  Nodes first (engine-neutral), then links in
   insertion order — for a partitioned build this fixes the relative
   order of the boundary drains, which is part of the determinism
   contract — then routes in insertion order. *)
let realize ~graph ~engines ~pools ~islands ~island_ix =
  let node_tbl = Hashtbl.create (Graph.n_nodes graph) in
  Array.iter
    (fun id ->
      let island = island_ix (Graph.island_of graph id) in
      Hashtbl.replace node_tbl id (Node.create engines.(island) pools.(island) ~id))
    (Graph.node_ids graph);
  let labels = Hashtbl.create 16 in
  (* [Graph.links] rebuilds the array on every call: bind it once, or
     the route loop below costs O(routes x links). *)
  let links = Graph.links graph in
  let conduits =
    Array.mapi
      (fun ix (l : Graph.link_spec) ->
        if String.length l.l_label > 0 then Hashtbl.replace labels l.l_label ix;
        let si = island_ix (Graph.island_of graph l.l_src) in
        let di = island_ix (Graph.island_of graph l.l_dst) in
        let to_ =
          match Hashtbl.find_opt node_tbl l.l_dst with
          | Some n -> n
          | None -> assert false (* every link endpoint was just inserted above *)
        in
        if si = di then begin
          let link =
            Link.create engines.(si) pools.(si) ~bandwidth_bps:l.l_bw ~delay_s:l.l_delay
              ~capacity_pkts:l.l_cap
          in
          Link.set_receiver link (Node.receive to_);
          Direct link
        end
        else begin
          let coordinator, pdes_islands =
            match islands with
            | Some (c, arr) -> (c, arr)
            | None -> assert false (* serial builds collapse every island to index 0 *)
          in
          let b =
            Boundary_link.create coordinator ~src:pdes_islands.(si) ~dst:pdes_islands.(di)
              ~src_pool:pools.(si) ~dst_pool:pools.(di) ~bandwidth_bps:l.l_bw
              ~delay_s:l.l_delay ~capacity_pkts:l.l_cap ()
          in
          Boundary_link.set_receiver b (Node.receive to_);
          Boundary b
        end)
      links
  in
  let egress ix =
    match conduits.(ix) with Direct l -> l | Boundary bl -> Boundary_link.egress bl
  in
  Array.iter
    (fun (r : Graph.route_spec) ->
      let at =
        match Hashtbl.find_opt node_tbl r.r_at with
        | Some n -> n
        | None -> assert false (* Graph.route validated the node id at insertion *)
      in
      (* A node can only transmit into a link that starts on its own
         island (a boundary's egress half lives on the source island). *)
      let l = links.(r.r_via) in
      if island_ix (Graph.island_of graph r.r_at) <> island_ix (Graph.island_of graph l.l_src)
      then
        invalid_arg
          (Printf.sprintf "Topology: route at node %d uses link %d from another island" r.r_at
             r.r_via);
      match r.r_dst with
      | Some dst -> Node.add_route at ~dst (egress r.r_via)
      | None -> Node.set_default_route at (egress r.r_via))
    (Graph.routes graph);
  { graph; engines; pools; islands = (match islands with Some (_, a) -> a | None -> [||]);
    node_tbl; conduits; labels }

let build engine graph =
  let pool = Packet.create_pool () in
  realize ~graph ~engines:[| engine |] ~pools:[| pool |] ~islands:None ~island_ix:(fun _ -> 0)

let build_partitioned coordinator graph =
  let n_islands = Graph.islands graph in
  if Float.is_finite (Graph.cut_lookahead_s graph) && Graph.cut_lookahead_s graph <= 0. then
    invalid_arg "Topology.build_partitioned: cross-island links need positive delay";
  let islands = Array.init n_islands (fun _ -> Pdes.add_island coordinator) in
  let engines = Array.map Pdes.engine islands in
  let pools = Array.map (fun _ -> Packet.create_pool ()) islands in
  realize ~graph ~engines ~pools ~islands:(Some (coordinator, islands)) ~island_ix:(fun i -> i)

(* {2 The topology zoo}

   Named scenario-plane topologies, all emitted through {!Graph} so one
   description serves the serial, pool-fanned and partitioned paths.
   Island assignments are baked in (and ignored by {!build}), so the
   same constructor output can be realized either way. *)

module Zoo = struct
  type flow_path = { src : int; dst : int; rtt_s : float }

  type t = {
    name : string;
    graph : Graph.t;
    flow_paths : flow_path array;
    bottlenecks : int array;
    bottleneck_bw_bps : float;
    incast_sink : int;
    incast_sources : int array;
  }

  (* {3 Dumbbell} — the paper's Figure 1, as a graph.  Same node-id
     scheme as the legacy record constructor (senders [0..n-1],
     receivers [n..2n-1], routers [2n]/[2n+1]); the qcheck equivalence
     property in the test suite holds the two byte-identical.  Left side
     is island 0 and right side island 1 — the natural cut runs through
     the bottleneck. *)
  let dumbbell ?(spec = paper_spec) () =
    if spec.n < 1 then invalid_arg "Zoo.dumbbell: need at least one sender";
    let bneck_delay = bottleneck_delay spec in
    let n = spec.n in
    let g = Graph.create () in
    for i = 0 to n - 1 do
      Graph.add_node g ~island:0 i
    done;
    for i = 0 to n - 1 do
      Graph.add_node g ~island:1 (n + i)
    done;
    let left = 2 * n and right = (2 * n) + 1 in
    Graph.add_node g ~island:0 left;
    Graph.add_node g ~island:1 right;
    let access_capacity = 10_000 in
    let capacity = buffer_packets spec in
    let bottleneck =
      Graph.add_link g ~label:"bottleneck" ~src:left ~dst:right
        ~bandwidth_bps:spec.bottleneck_bw_bps ~delay_s:bneck_delay ~capacity_pkts:capacity ()
    in
    let reverse =
      Graph.add_link g ~label:"reverse_bottleneck" ~src:right ~dst:left
        ~bandwidth_bps:spec.bottleneck_bw_bps ~delay_s:bneck_delay ~capacity_pkts:capacity ()
    in
    let access ~src ~dst =
      Graph.add_link g ~src ~dst ~bandwidth_bps:spec.access_bw_bps
        ~delay_s:spec.access_delay_s ~capacity_pkts:access_capacity ()
    in
    for i = 0 to n - 1 do
      let up = access ~src:i ~dst:left in
      Graph.set_default_route g ~at:i ~via:up;
      let down = access ~src:left ~dst:i in
      Graph.add_route g ~at:left ~dst:i ~via:down
    done;
    for i = 0 to n - 1 do
      let r = n + i in
      let down = access ~src:right ~dst:r in
      Graph.add_route g ~at:right ~dst:r ~via:down;
      let up = access ~src:r ~dst:right in
      Graph.set_default_route g ~at:r ~via:up
    done;
    Graph.set_default_route g ~at:left ~via:bottleneck;
    Graph.set_default_route g ~at:right ~via:reverse;
    {
      name = "dumbbell";
      graph = g;
      flow_paths = Array.init n (fun i -> { src = i; dst = n + i; rtt_s = spec.rtt_s });
      bottlenecks = [| bottleneck |];
      bottleneck_bw_bps = spec.bottleneck_bw_bps;
      (* Any sender can reach any receiver across the bottleneck. *)
      incast_sink = n;
      incast_sources = Array.init n Fun.id;
    }

  (* {3 Parking lot} — the multi-bottleneck chain the partitioned
     engine runs: one island per segment, long flows crossing every
     cut.  Node ids follow the scheme the [Parking_lot] experiment has
     always used (globally unique across islands). *)

  type parking_lot_spec = {
    segments : int;
    local_pairs : int;
    long_flows : int;
    hop_bw_bps : float;
    hop_delay_s : float;
    cut_bw_bps : float;
    cut_delay_s : float;
    pl_access_bw_bps : float;
    pl_access_delay_s : float;
    buffer_pkts : int;
  }

  (* A light matrix-cell sizing; the partitioned bench passes its own
     heavier spec. *)
  let default_parking_lot =
    {
      segments = 3;
      local_pairs = 3;
      long_flows = 3;
      hop_bw_bps = 40e6;
      hop_delay_s = 0.005;
      cut_bw_bps = 80e6;
      cut_delay_s = 0.010;
      pl_access_bw_bps = 1e9;
      pl_access_delay_s = 0.0005;
      buffer_pkts = 300;
    }

  let pl_long_sender_id i = i
  let pl_long_receiver_id i = 1_000_000 + i
  let pl_local_sender_id ~segment ~pair = (10_000 * (segment + 1)) + pair
  let pl_local_receiver_id ~segment ~pair = (10_000 * (segment + 1)) + 5_000 + pair
  let pl_left_router_id segment = 900_000 + (2 * segment)
  let pl_right_router_id segment = 900_000 + (2 * segment) + 1

  let parking_lot ?(spec = default_parking_lot) () =
    if spec.segments < 1 then invalid_arg "Zoo.parking_lot: need at least one segment";
    if spec.local_pairs < 0 || spec.long_flows < 0 then
      invalid_arg "Zoo.parking_lot: negative flow counts";
    let s_count = spec.segments in
    let g = Graph.create () in
    for s = 0 to s_count - 1 do
      Graph.add_node g ~island:s (pl_left_router_id s);
      Graph.add_node g ~island:s (pl_right_router_id s)
    done;
    for s = 0 to s_count - 1 do
      for j = 0 to spec.local_pairs - 1 do
        Graph.add_node g ~island:s (pl_local_sender_id ~segment:s ~pair:j);
        Graph.add_node g ~island:s (pl_local_receiver_id ~segment:s ~pair:j)
      done
    done;
    for i = 0 to spec.long_flows - 1 do
      Graph.add_node g ~island:0 (pl_long_sender_id i);
      Graph.add_node g ~island:(s_count - 1) (pl_long_receiver_id i)
    done;
    (* Links in the order the ad-hoc builder created them: hops forward,
       hops reverse, forward cuts, reverse cuts (the cut order fixes the
       boundary-drain registration order), then host access pairs. *)
    let hop ~label ~src ~dst =
      Graph.add_link g ~label ~src ~dst ~bandwidth_bps:spec.hop_bw_bps
        ~delay_s:spec.hop_delay_s ~capacity_pkts:spec.buffer_pkts ()
    in
    let hop_fwd =
      Array.init s_count (fun s ->
          hop ~label:(Printf.sprintf "hop_fwd:%d" s) ~src:(pl_left_router_id s)
            ~dst:(pl_right_router_id s))
    in
    let hop_rev =
      Array.init s_count (fun s ->
          hop ~label:(Printf.sprintf "hop_rev:%d" s) ~src:(pl_right_router_id s)
            ~dst:(pl_left_router_id s))
    in
    let cut ~label ~src ~dst =
      Graph.add_link g ~label ~src ~dst ~bandwidth_bps:spec.cut_bw_bps
        ~delay_s:spec.cut_delay_s ~capacity_pkts:10_000 ()
    in
    let f_cut =
      Array.init (s_count - 1) (fun s ->
          cut ~label:(Printf.sprintf "f_cut:%d" s) ~src:(pl_right_router_id s)
            ~dst:(pl_left_router_id (s + 1)))
    in
    let r_cut =
      Array.init (s_count - 1) (fun s ->
          cut ~label:(Printf.sprintf "r_cut:%d" s) ~src:(pl_left_router_id (s + 1))
            ~dst:(pl_right_router_id s))
    in
    let access ~src ~dst =
      Graph.add_link g ~src ~dst ~bandwidth_bps:spec.pl_access_bw_bps
        ~delay_s:spec.pl_access_delay_s ~capacity_pkts:10_000 ()
    in
    (* Hosts: up link at creation, down link with the router's route. *)
    for s = 0 to s_count - 1 do
      for j = 0 to spec.local_pairs - 1 do
        let sender = pl_local_sender_id ~segment:s ~pair:j in
        Graph.set_default_route g ~at:sender ~via:(access ~src:sender ~dst:(pl_left_router_id s));
        Graph.add_route g ~at:(pl_left_router_id s) ~dst:sender
          ~via:(access ~src:(pl_left_router_id s) ~dst:sender);
        let receiver = pl_local_receiver_id ~segment:s ~pair:j in
        Graph.set_default_route g ~at:receiver
          ~via:(access ~src:receiver ~dst:(pl_right_router_id s));
        Graph.add_route g ~at:(pl_right_router_id s) ~dst:receiver
          ~via:(access ~src:(pl_right_router_id s) ~dst:receiver)
      done
    done;
    for i = 0 to spec.long_flows - 1 do
      let sender = pl_long_sender_id i in
      Graph.set_default_route g ~at:sender ~via:(access ~src:sender ~dst:(pl_left_router_id 0));
      Graph.add_route g ~at:(pl_left_router_id 0) ~dst:sender
        ~via:(access ~src:(pl_left_router_id 0) ~dst:sender);
      let receiver = pl_long_receiver_id i in
      Graph.set_default_route g ~at:receiver
        ~via:(access ~src:receiver ~dst:(pl_right_router_id (s_count - 1)));
      Graph.add_route g ~at:(pl_right_router_id (s_count - 1)) ~dst:receiver
        ~via:(access ~src:(pl_right_router_id (s_count - 1)) ~dst:receiver)
    done;
    (* Router forwarding (same shape as the ad-hoc builder): left router
       [s] sends long-sender traffic back toward segment 0 and defaults
       forward over the hop; right router [s] sends any sender traffic
       back over the reverse hop and long-receiver traffic onward. *)
    for s = 0 to s_count - 1 do
      for i = 0 to spec.long_flows - 1 do
        if s > 0 then
          Graph.add_route g ~at:(pl_left_router_id s) ~dst:(pl_long_sender_id i)
            ~via:r_cut.(s - 1)
      done;
      Graph.set_default_route g ~at:(pl_left_router_id s) ~via:hop_fwd.(s);
      for j = 0 to spec.local_pairs - 1 do
        Graph.add_route g ~at:(pl_right_router_id s)
          ~dst:(pl_local_sender_id ~segment:s ~pair:j)
          ~via:hop_rev.(s)
      done;
      for i = 0 to spec.long_flows - 1 do
        Graph.add_route g ~at:(pl_right_router_id s) ~dst:(pl_long_sender_id i) ~via:hop_rev.(s);
        if s < s_count - 1 then
          Graph.add_route g ~at:(pl_right_router_id s) ~dst:(pl_long_receiver_id i)
            ~via:f_cut.(s)
      done;
      if s = s_count - 1 then Graph.set_default_route g ~at:(pl_right_router_id s) ~via:hop_rev.(s)
      else Graph.set_default_route g ~at:(pl_right_router_id s) ~via:f_cut.(s)
    done;
    let local_rtt = 2. *. ((2. *. spec.pl_access_delay_s) +. spec.hop_delay_s) in
    let long_rtt =
      2.
      *. ((2. *. spec.pl_access_delay_s)
          +. (float_of_int s_count *. spec.hop_delay_s)
          +. (float_of_int (s_count - 1) *. spec.cut_delay_s))
    in
    let flow_paths =
      Array.init
        ((s_count * spec.local_pairs) + spec.long_flows)
        (fun f ->
          if f < s_count * spec.local_pairs then begin
            let s = f / spec.local_pairs and j = f mod spec.local_pairs in
            {
              src = pl_local_sender_id ~segment:s ~pair:j;
              dst = pl_local_receiver_id ~segment:s ~pair:j;
              rtt_s = local_rtt;
            }
          end
          else
            let i = f - (s_count * spec.local_pairs) in
            { src = pl_long_sender_id i; dst = pl_long_receiver_id i; rtt_s = long_rtt })
    in
    (* Incast anchors must respect the chain's directional routing: the
       only hosts with a return route from segment 0's right router are
       that segment's local senders and the long senders. *)
    let incast_sink, incast_sources =
      if spec.local_pairs > 0 then
        ( pl_local_receiver_id ~segment:0 ~pair:0,
          Array.append
            (Array.init spec.local_pairs (fun j -> pl_local_sender_id ~segment:0 ~pair:j))
            (Array.init spec.long_flows pl_long_sender_id) )
      else if spec.long_flows > 0 then
        (pl_long_receiver_id 0, Array.init spec.long_flows pl_long_sender_id)
      else (-1, [||])
    in
    {
      name = "parking_lot";
      graph = g;
      flow_paths;
      bottlenecks = hop_fwd;
      bottleneck_bw_bps = spec.hop_bw_bps;
      incast_sink;
      incast_sources;
    }

  (* {3 Fat-tree pod} — one pod of a k-ary fat tree: k/2 edge switches,
     k/2 aggregation switches, k/2 hosts per edge.  Paths between hosts
     on different edge switches climb to an aggregation switch chosen
     deterministically by destination (ECMP-by-destination), so routing
     stays purely destination-based. *)

  let ft_host_id ~edge ~slot = (100 * (edge + 1)) + slot
  let ft_edge_id e = 10_000 + e
  let ft_agg_id a = 20_000 + a

  let fat_tree_pod ?(k = 4) ?(core_bw_bps = 40e6) ?(core_delay_s = 0.002)
      ?(host_bw_bps = 400e6) ?(host_delay_s = 0.0005) ?(buffer_pkts = 200) () =
    if k < 2 || k mod 2 <> 0 then invalid_arg "Zoo.fat_tree_pod: k must be even and >= 2";
    let half = k / 2 in
    let g = Graph.create () in
    for e = 0 to half - 1 do
      Graph.add_node g (ft_edge_id e)
    done;
    for a = 0 to half - 1 do
      Graph.add_node g (ft_agg_id a)
    done;
    for e = 0 to half - 1 do
      for h = 0 to half - 1 do
        Graph.add_node g (ft_host_id ~edge:e ~slot:h)
      done
    done;
    (* Core fabric: an up and a down link per (edge, agg) pair. *)
    let up = Array.make_matrix half half (-1) in
    let down = Array.make_matrix half half (-1) in
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        up.(e).(a) <-
          Graph.add_link g
            ~label:(Printf.sprintf "up:%d:%d" e a)
            ~src:(ft_edge_id e) ~dst:(ft_agg_id a) ~bandwidth_bps:core_bw_bps
            ~delay_s:core_delay_s ~capacity_pkts:buffer_pkts ();
        down.(e).(a) <-
          Graph.add_link g ~src:(ft_agg_id a) ~dst:(ft_edge_id e) ~bandwidth_bps:core_bw_bps
            ~delay_s:core_delay_s ~capacity_pkts:buffer_pkts ()
      done
    done;
    (* Host access links and destination routes. *)
    for e = 0 to half - 1 do
      for h = 0 to half - 1 do
        let host = ft_host_id ~edge:e ~slot:h in
        let host_up =
          Graph.add_link g ~src:host ~dst:(ft_edge_id e) ~bandwidth_bps:host_bw_bps
            ~delay_s:host_delay_s ~capacity_pkts:10_000 ()
        in
        Graph.set_default_route g ~at:host ~via:host_up;
        let host_down =
          Graph.add_link g ~src:(ft_edge_id e) ~dst:host ~bandwidth_bps:host_bw_bps
            ~delay_s:host_delay_s ~capacity_pkts:10_000 ()
        in
        Graph.add_route g ~at:(ft_edge_id e) ~dst:host ~via:host_down;
        (* Every other edge climbs to this host's home aggregation
           switch; the aggregation switch descends to its edge. *)
        let agg = ((e * half) + h) mod half in
        Graph.add_route g ~at:(ft_agg_id agg) ~dst:host ~via:down.(e).(agg);
        for e' = 0 to half - 1 do
          if e' <> e then Graph.add_route g ~at:(ft_edge_id e') ~dst:host ~via:up.(e').(agg)
        done
      done
    done;
    let n_hosts = half * half in
    let rtt_s = 2. *. ((2. *. host_delay_s) +. (2. *. core_delay_s)) in
    let flow_paths =
      (* Host i talks to its slot-mate one edge over: every flow crosses
         the fabric, and the deterministic agg choice spreads them. *)
      Array.init n_hosts (fun i ->
          let e = i / half and h = i mod half in
          let e' = (e + 1) mod half in
          { src = ft_host_id ~edge:e ~slot:h; dst = ft_host_id ~edge:e' ~slot:h; rtt_s })
    in
    let bottlenecks =
      Array.init (half * half) (fun i -> up.(i / half).(i mod half))
    in
    {
      name = "fat_tree_pod";
      graph = g;
      flow_paths;
      bottlenecks;
      bottleneck_bw_bps = core_bw_bps;
      (* All-pairs destination routing: every other host can converge
         on host (0, 0). *)
      incast_sink = ft_host_id ~edge:0 ~slot:0;
      incast_sources =
        Array.of_list
          (List.concat_map
             (fun e ->
               List.filter_map
                 (fun h -> if e = 0 && h = 0 then None else Some (ft_host_id ~edge:e ~slot:h))
                 (List.init half Fun.id))
             (List.init half Fun.id));
    }

  (* {3 WAN} — a handful of sites joined by a full mesh of
     heterogeneous-RTT long-haul links (the inter-datacenter setting of
     the CC thesis in PAPERS.md): island per site, every long-haul link
     a cut.  One-way delays spread ~15–105 ms across the pairs, so
     algorithm behaviour at short and long RTT lands in the same run. *)

  let wan_site_router_id i = 50_000 + i
  let wan_host_id ~site ~slot = (1_000 * (site + 1)) + slot

  (* Deterministic heterogeneous one-way delay for the pair (i, j),
     i < j: 15 ms plus 18 ms per enumeration step. *)
  let wan_pair_delay_s ~sites ~i ~j =
    let rec pair_index ~i ~j acc a b =
      if a = i && b = j then acc
      else if b = sites - 1 then pair_index ~i ~j (acc + 1) (a + 1) (a + 2)
      else pair_index ~i ~j (acc + 1) a (b + 1)
    in
    0.015 +. (0.018 *. float_of_int (pair_index ~i ~j 0 0 1))

  let wan ?(sites = 4) ?(hosts_per_site = 3) ?(wan_bw_bps = 30e6) ?(access_bw_bps = 1e9)
      ?(access_delay_s = 0.0005) ?(buffer_pkts = 400) () =
    if sites < 2 then invalid_arg "Zoo.wan: need at least two sites";
    if hosts_per_site < 1 then invalid_arg "Zoo.wan: need at least one host per site";
    let g = Graph.create () in
    for i = 0 to sites - 1 do
      Graph.add_node g ~island:i (wan_site_router_id i)
    done;
    for i = 0 to sites - 1 do
      for h = 0 to hosts_per_site - 1 do
        Graph.add_node g ~island:i (wan_host_id ~site:i ~slot:h)
      done
    done;
    (* Long-haul mesh: one directed link each way per site pair. *)
    let mesh = Array.make_matrix sites sites (-1) in
    for i = 0 to sites - 1 do
      for j = i + 1 to sites - 1 do
        let delay_s = wan_pair_delay_s ~sites ~i ~j in
        mesh.(i).(j) <-
          Graph.add_link g
            ~label:(Printf.sprintf "wan:%d:%d" i j)
            ~src:(wan_site_router_id i) ~dst:(wan_site_router_id j) ~bandwidth_bps:wan_bw_bps
            ~delay_s ~capacity_pkts:buffer_pkts ();
        mesh.(j).(i) <-
          Graph.add_link g
            ~label:(Printf.sprintf "wan:%d:%d" j i)
            ~src:(wan_site_router_id j) ~dst:(wan_site_router_id i) ~bandwidth_bps:wan_bw_bps
            ~delay_s ~capacity_pkts:buffer_pkts ()
      done
    done;
    (* Hosts and destination-based routing: the mesh is one hop, so
       every router routes a remote host over the direct long-haul link
       and a local host down its access link. *)
    for i = 0 to sites - 1 do
      for h = 0 to hosts_per_site - 1 do
        let host = wan_host_id ~site:i ~slot:h in
        let host_up =
          Graph.add_link g ~src:host ~dst:(wan_site_router_id i) ~bandwidth_bps:access_bw_bps
            ~delay_s:access_delay_s ~capacity_pkts:10_000 ()
        in
        Graph.set_default_route g ~at:host ~via:host_up;
        let host_down =
          Graph.add_link g ~src:(wan_site_router_id i) ~dst:host ~bandwidth_bps:access_bw_bps
            ~delay_s:access_delay_s ~capacity_pkts:10_000 ()
        in
        Graph.add_route g ~at:(wan_site_router_id i) ~dst:host ~via:host_down;
        for j = 0 to sites - 1 do
          if j <> i then Graph.add_route g ~at:(wan_site_router_id j) ~dst:host ~via:mesh.(j).(i)
        done
      done
    done;
    (* Flows: round-robin over the ordered site pairs, so every RTT class
       carries traffic in both directions. *)
    let pairs =
      Array.of_list
        (List.concat_map
           (fun i ->
             List.filter_map
               (fun j -> if j <> i then Some (i, j) else None)
               (List.init sites Fun.id))
           (List.init sites Fun.id))
    in
    let n_flows = sites * hosts_per_site in
    let flow_paths =
      Array.init n_flows (fun f ->
          let i, j = pairs.(f mod Array.length pairs) in
          let slot = f / Array.length pairs mod hosts_per_site in
          let d = wan_pair_delay_s ~sites ~i:(Stdlib.min i j) ~j:(Stdlib.max i j) in
          {
            src = wan_host_id ~site:i ~slot;
            dst = wan_host_id ~site:j ~slot;
            rtt_s = 2. *. ((2. *. access_delay_s) +. d);
          })
    in
    let bottlenecks =
      Array.of_list
        (List.concat_map
           (fun i ->
             List.filter_map
               (fun j -> if mesh.(i).(j) >= 0 then Some mesh.(i).(j) else None)
               (List.init sites Fun.id))
           (List.init sites Fun.id))
    in
    {
      name = "wan";
      graph = g;
      flow_paths;
      bottlenecks;
      bottleneck_bw_bps = wan_bw_bps;
      (* Full mesh: every other host can converge on host (0, 0). *)
      incast_sink = wan_host_id ~site:0 ~slot:0;
      incast_sources =
        Array.of_list
          (List.concat_map
             (fun i ->
               List.filter_map
                 (fun h -> if i = 0 && h = 0 then None else Some (wan_host_id ~site:i ~slot:h))
                 (List.init hosts_per_site Fun.id))
             (List.init sites Fun.id));
    }

  let names = [ "dumbbell"; "parking_lot"; "fat_tree_pod"; "wan" ]

  let by_name = function
    | "dumbbell" -> dumbbell ()
    | "parking_lot" -> parking_lot ()
    | "fat_tree_pod" -> fat_tree_pod ()
    | "wan" -> wan ()
    | other -> invalid_arg (Printf.sprintf "Zoo.by_name: unknown topology %S" other)
end
