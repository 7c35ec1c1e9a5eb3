(* phibench: the repository benchmark.

     phibench --workload W --seed N --seconds S --trace 0|1

   Runs one workload in this process and prints, as the last line of
   standard output, one JSON object: whether every output checked out,
   how many operations were attempted and failed, and the metrics —
   the end-to-end set with --trace 0, the per-layer set with --trace 1.
   Human-readable detail (sample counts, failures) goes to standard
   error.  See README.md beside this file. *)

module Kit = Phibench_kit.Kit

let workloads = [ "dumbbell_sweep"; "parking_lot_pdes"; "wan_dynamics"; "context_service" ]

(* Pinned GC settings, whatever OCAMLRUNPARAM says: the worker pool's
   64 Kword minor heap and the stock space overhead. *)
let pin_gc () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 16; space_overhead = 120 }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {2 Estimators}

   Interference from other tenants of a shared host only ever adds
   time, and it comes in spells of seconds that can slow a whole pass
   by half.  So every timed quantity is sampled repeatedly over the run
   and reported as its best sample (the least time, the highest rate):
   the estimate such noise cannot inflate.  The inputs are
   deterministic, so a pass's best time is a repeatable property of the
   code.  Passes are cut into slices that are the same work in every
   pass (a simulated second, a chunk of messages), and each slice keeps
   its own best time.  Set-up is sampled the same way: each cell's
   set-up, and the context trace's generation, is repeated in every
   round and keeps its least time. *)

let ratio a b = if b = 0. then 0. else a /. b
let ns_per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let best xs = List.fold_left Float.min Float.infinity xs

(* The host-speed probe (see Kit), sampled after every round, once per
   started second of the round. *)
let host = Kit.host ()

(* Rounds of [f] for [seconds]: a round is not started when the last
   one, taking as long again, would end past the deadline, so a run
   measures for about [seconds] and no more. *)
let rounds_until ~seconds f =
  let deadline = Kit.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let t0 = Kit.now_ns () in
    let r = f () in
    for _ = 0 to (Kit.now_ns () - t0) / 1_000_000_000 do
      Kit.sample_host host
    done;
    let t1 = Kit.now_ns () in
    if t1 + (t1 - t0) > deadline then List.rev (r :: acc) else go (r :: acc)
  in
  go []

let percentiles ~what samples =
  let p50 = Kit.percentile samples ~p:50. and p99 = Kit.percentile samples ~p:99. in
  Printf.eprintf "%s: p50 %.2f us (n=%d), p99 %.2f us (n=%d, %d beyond%s)\n" what p50.Kit.value
    p50.Kit.samples p99.Kit.value p99.Kit.samples p99.Kit.beyond
    (if Kit.resolved p99 then "" else "; fewer than 10 beyond, so it is the maximum");
  (p50.Kit.value, p99.Kit.value)

type gc_delta = { minor_words : float; major_collections : int }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
  }

(* [f ()] from a freshly collected heap, with the GC work it did itself:
   the snapshots are taken after the forced collection, so that
   collection is not counted. *)
let gc_measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* {2 Simulator workloads}

   A round runs every cell of the workload once, serially, each from a
   freshly collected heap.  Each cell is one attempted operation, and
   its fingerprint must equal the one first recorded for that cell in
   this process. *)

type round = {
  walls : float array;  (** seconds per cell; nan when the cell failed *)
  outs : Sims.cell option array;
  gc : gc_delta;  (** summed over the cells *)
  once_s : float;  (** the workload's once-only set-up, repeated in this round *)
}

let sim_round ledger run cells =
  let walls = Array.make (Array.length cells) Float.nan in
  let gc = ref { minor_words = 0.; major_collections = 0 } in
  let outs =
    Array.mapi
      (fun i cell ->
        let (out, wall), d =
          gc_measure (fun () ->
              let t0 = Kit.now_ns () in
              let out = Kit.attempt ledger (fun () -> run cell) in
              (out, Kit.seconds_of_ns (Kit.now_ns () - t0)))
        in
        gc := gc_add !gc d;
        Option.iter
          (fun (c : Sims.cell) ->
            walls.(i) <- wall;
            Kit.check ledger ~key:(string_of_int i) c.Sims.fingerprint)
          out;
        out)
      cells
  in
  Printf.eprintf "round: cells took %s ms\n%!"
    (String.concat " " (Array.to_list (Array.map (fun w -> Printf.sprintf "%.0f" (w *. 1e3)) walls)));
  { walls; outs; gc = !gc; once_s = 0. }

(* Each slice's least time over the rounds; when a cell's slices do not
   line up between rounds (only when its fingerprint changed, which has
   already failed it), its least total. *)
let best_slices (chunks : float array list) =
  match chunks with
  | [] -> [||]
  | c0 :: _ ->
    if List.exists (fun c -> Array.length c <> Array.length c0) chunks then
      [| best (List.map (Array.fold_left ( +. ) 0.) chunks) |]
    else Array.init (Array.length c0) (fun k -> best (List.map (fun c -> c.(k)) chunks))

let best_time chunks = Array.fold_left ( +. ) 0. (best_slices chunks)

(* A cell's best readings over the rounds it succeeded in. *)
type best_cell = {
  cell : Sims.cell;  (** its first success, for the counts *)
  slices : float array;
  setup_s : float;
  build_s : float;
}

let best_cells rounds =
  match rounds with
  | [] -> []
  | r0 :: _ ->
    List.concat
      (List.init (Array.length r0.outs) (fun i ->
           match List.filter_map (fun r -> r.outs.(i)) rounds with
           | [] -> []
           | cell :: _ as ok ->
             [
               {
                 cell;
                 slices = best_slices (List.map (fun (c : Sims.cell) -> c.Sims.chunks) ok);
                 setup_s = best (List.map (fun (c : Sims.cell) -> c.Sims.setup_s) ok);
                 build_s = best (List.map (fun (c : Sims.cell) -> c.Sims.build_s) ok);
               };
             ]))

(* Simulated seconds and engine events per host second. *)
let sim_rates cells =
  let t = sumf (fun b -> Array.fold_left ( +. ) 0. b.slices) cells in
  ( ratio (sumf (fun b -> b.cell.Sims.sim_s) cells) t,
    ratio (float_of_int (sumi (fun b -> b.cell.Sims.events) cells)) t )

(* Host time per simulated second: the best time of every slice between
   two ticks (the last slice also harvests the cell, so it is left out),
   or, for a cell without ticks, its best total. *)
let service_us cells =
  Array.concat
    (List.map
       (fun b ->
         let n = Array.length b.slices in
         let inner = if n > 1 then Array.sub b.slices 0 (n - 1) else b.slices in
         Array.map (fun s -> s *. 1e6) inner)
       cells)

(* [setup_s] is the best of what the workload sets up once, plus every
   cell's best set-up. *)
let sim_e2e rounds =
  let cells = best_cells rounds in
  let sim_s_per_s, ops_per_s = sim_rates cells in
  let p50, _ = percentiles ~what:"host time per simulated second (best slices)" (service_us cells) in
  let once_s = best (List.map (fun r -> r.once_s) rounds) in
  Printf.eprintf "set-up: once %.1f us, best per cell %s us\n" (once_s *. 1e6)
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.1f" (b.setup_s *. 1e6)) cells));
  [
    ("setup_s", once_s +. sumf (fun b -> b.setup_s) cells);
    ("sim_s_per_s", sim_s_per_s);
    ("ops_per_s", ops_per_s);
    ("service_p50_us", p50);
  ]

(* Per-layer metrics of a traced simulator run: [plain] are untraced
   rounds alternating with the [traced] rounds run under the probe (the
   same rounds when there is no probe), and the GC deltas are those of
   the first plain round.  Counts are per cell. *)
let sim_layers ~(probe : Sims.probe option) ~plain ~traced =
  let all = List.concat_map (fun r -> List.filter_map Fun.id (Array.to_list r.outs)) traced in
  let wall_s =
    sumf (fun r -> Array.fold_left (fun a w -> if Float.is_nan w then a else a +. w) 0. r.walls) traced
  in
  let wall_ns = int_of_float (wall_s *. 1e9) in
  let sum f = sumi f all in
  let bn = sum (fun c -> c.Sims.bn_pkts) and events = sum (fun c -> c.Sims.events) in
  let per_cell x = ratio (float_of_int x) (float_of_int (List.length all)) in
  let ctx f = sum (fun c -> match c.Sims.ctx with Some s -> f s | None -> 0) in
  let first = List.hd plain in
  let plain_bn = sumi (fun c -> c.Sims.bn_pkts) (List.filter_map Fun.id (Array.to_list first.outs)) in
  let best_plain = best_cells plain in
  let self_ns, probed =
    match probe with
    | None -> (0, [])
    | Some p ->
      ( p.Sims.cubic_ack_ns + p.Sims.remy_ack_ns + p.Sims.cc_other_ns + p.Sims.ctx_lookup_ns
        + p.Sims.ctx_report_ns,
        [
          ("cc.on_ack_calls", per_cell p.Sims.cubic_acks);
          ("cc.on_ack_ns", ns_per p.Sims.cubic_ack_ns p.Sims.cubic_acks);
          ("cc.self_share", ns_per p.Sims.cubic_ack_ns wall_ns);
          ("remy.on_ack_calls", per_cell p.Sims.remy_acks);
          ("remy.on_ack_ns", ns_per p.Sims.remy_ack_ns p.Sims.remy_acks);
          ("remy.self_share", ns_per p.Sims.remy_ack_ns wall_ns);
          ("tcp.timeouts", per_cell p.Sims.timeouts);
          ("ctx.handle_ns.lookup", ns_per p.Sims.ctx_lookup_ns p.Sims.ctx_lookups);
          ("ctx.handle_ns.report", ns_per p.Sims.ctx_report_ns p.Sims.ctx_reports);
          ( "trace.overhead",
            ratio (fst (sim_rates best_plain)) (fst (sim_rates (best_cells traced))) -. 1. );
        ] )
  in
  let samples = service_us best_plain in
  let _, p99 = percentiles ~what:"host time per simulated second (best slices)" samples in
  probed
  @ [
      ("engine.events", per_cell events);
      ("engine.events_per_bn_pkt", ns_per events bn);
      ("core.ns_per_bn_pkt", ns_per (wall_ns - self_ns) bn);
      ( "topology.build_ms",
        1e3 *. ratio (sumf (fun b -> b.build_s) best_plain) (float_of_int (List.length best_plain)) );
      ( "packet.pool_high_water",
        float_of_int (List.fold_left (fun acc c -> Stdlib.max acc c.Sims.pool_high_water) 0 all) );
      ("pdes.boundary_pkts", per_cell (sum (fun c -> c.Sims.boundary_pkts)));
      ("link.bn_pkts", per_cell bn);
      ("link.drop_share", ns_per (sum (fun c -> c.Sims.bn_drops)) (sum (fun c -> c.Sims.bn_offered)));
      ("link.ecn_marks", per_cell (sum (fun c -> c.Sims.ecn_marks)));
      ("link.queue_wait_us", 1e6 *. ratio (sumf (fun c -> c.Sims.queue_wait_s) all) (float_of_int bn));
      ("link.bn_util", ratio (sumf (fun c -> c.Sims.bn_util) all) (float_of_int (List.length all)));
      ("tcp.connections", per_cell (sum (fun c -> c.Sims.connections)));
      ("tcp.retx_share", ns_per (sum (fun c -> c.Sims.retx)) (sum (fun c -> c.Sims.segments)));
      ("ctx.flushes", per_cell (ctx (fun s -> s.Sims.flushes)));
      ("ctx.evictions", per_cell (ctx (fun s -> s.Sims.evictions)));
      ("ctx.resident_paths", per_cell (ctx (fun s -> s.Sims.resident)));
      ("gc.minor_words_per_bn_pkt", ratio first.gc.minor_words (float_of_int plain_bn));
      ("gc.major_collections", float_of_int first.gc.major_collections);
      ("service.p99_us", p99);
      ("service.samples", float_of_int (Array.length samples));
    ]

let ladder () =
  let reps f = best (List.init 3 (fun _ -> f ())) in
  [
    ("ladder.engine_ns_per_event", reps Sims.ladder_engine_ns_per_event);
    ("ladder.link_ns_per_pkt", reps Sims.ladder_link_ns_per_pkt);
  ]

(* A serial simulator workload: [run ?probe] runs one cell, set-up
   included (see [Sims.install_ticks]); [once ()] repeats and times the
   set-up the workload does once, before its first cell.  An untimed
   warm-up round pays first-touch page faults and heap growth and
   records every cell's reference fingerprint. *)
let serial_sim ledger ~seconds ~trace ~once ~cells ~run =
  let cells = Array.of_list cells in
  ignore (sim_round ledger (run ?probe:None) cells);
  Gc.compact ();
  let round ?probe () =
    let once_s = once () in
    { (sim_round ledger (run ?probe) cells) with once_s }
  in
  if not trace then sim_e2e (rounds_until ~seconds (fun () -> round ()))
  else
    let first = round () in
    let probe = Sims.probe () in
    let pairs = rounds_until ~seconds (fun () -> (round ~probe (), round ())) in
    let traced = List.map fst pairs and plain = first :: List.map snd pairs in
    sim_layers ~probe:(Some probe) ~plain ~traced @ ladder ()

let dumbbell_sweep ledger ~seed ~seconds ~trace =
  serial_sim ledger ~seconds ~trace ~once:(fun () -> 0.) ~cells:(Sims.dumbbell_cells ~seed)
    ~run:(fun ?probe c -> Sims.run_dumbbell ?probe c)

(* The matrix compiles the Remy-Phi table once, before its first cell;
   every round compiles it again, from a freshly collected heap, to time
   that step. *)
let wan_dynamics ledger ~seed ~seconds ~trace =
  let table = Sims.compile_table () in
  let once () =
    Gc.full_major ();
    Kit.seconds_of_ns (Kit.time_ns Sims.compile_table)
  in
  serial_sim ledger ~seconds ~trace ~once ~cells:(Sims.zoo_cells ~seed)
    ~run:(fun ?probe c -> Sims.run_zoo_cell ?probe ~table c)

(* The lot, one per round, on one domain: [Pdes.run] still steps every
   window and drains every boundary, but no domain waits at a barrier
   for the other CPU, which on a shared host is slowed in spells that a
   single domain can be moved away from (see STEADINESS.md).  The traced
   run also runs each lot at [Sims.lot_jobs] domains for the speed-up;
   the lot's fingerprint is jobs-invariant, so those lots check against
   the same reference.  The lot takes no [cc_factory], so the traced run
   has no probe and checks 2 domains against 1, not traced against
   untraced. *)
let parking_lot_pdes ledger ~seed ~seconds ~trace =
  let spec = Sims.lot_spec ~seed in
  (* Warm-up on a one-second lot: code and heap, not the fingerprint. *)
  ignore (Sims.run_lot ~jobs:1 ~build_s:0. { spec with Phi_experiments.Parking_lot.duration_s = 1. });
  Gc.compact ();
  let window_s = ref 0. in
  let lot ~jobs () =
    Gc.full_major ();
    let build_s = Kit.seconds_of_ns (Kit.time_ns (Sims.build_lot spec)) in
    sim_round ledger
      (fun spec ->
        let c, w = Sims.run_lot ~jobs ~build_s spec in
        window_s := w;
        c)
      [| spec |]
  in
  if not trace then sim_e2e (rounds_until ~seconds (lot ~jobs:1))
  else
    let pairs =
      rounds_until ~seconds (fun () ->
          let one = lot ~jobs:1 () in
          (one, lot ~jobs:Sims.lot_jobs ()))
    in
    let ones = List.map fst pairs and many = List.map snd pairs in
    let duration = spec.Phi_experiments.Parking_lot.duration_s in
    [
      ( "pdes.speedup_2v1",
        ratio (fst (sim_rates (best_cells many))) (fst (sim_rates (best_cells ones))) );
      ("pdes.windows", if !window_s > 0. then Float.ceil (duration /. !window_s) else 0.);
    ]
    @ sim_layers ~probe:None ~plain:ones ~traced:ones
    @ ladder ()

(* {2 context_service}

   Each round generates the trace again (set-up, timed), then runs one
   open-loop pass (the latency metrics) and three closed-loop passes
   (the capacity metrics), every pass over the whole trace against a
   fresh server from a freshly collected heap.  Each message served is
   one attempted operation. *)

let context_service ledger ~seed ~seconds ~trace =
  let generate () =
    Gc.full_major ();
    let t0 = Kit.now_ns () in
    let data = Ctxw.generate ~seed in
    (data, Kit.seconds_of_ns (Kit.now_ns () - t0))
  in
  let data, first_setup_s = generate () in
  let regenerate () =
    let again, setup_s = generate () in
    if again <> data then Kit.fail ledger "trace generation is not deterministic";
    setup_s
  in
  let policy = Ctxw.policy () in
  let n = Ctxw.messages data in
  let account (p : Ctxw.pass) =
    ledger.Kit.attempted <- ledger.Kit.attempted + n;
    List.iter (Kit.fail ledger) (List.rev p.Ctxw.errors);
    Kit.check ledger ~key:"pass" (Ctxw.finish p)
  in
  let closed ?traced () =
    let (p, chunks), gc = gc_measure (fun () -> Ctxw.closed_loop ?traced policy data) in
    account p;
    (p, chunks, gc)
  in
  let open_pass () =
    Gc.full_major ();
    let p, stats = Ctxw.open_loop policy data in
    account p;
    stats
  in
  ignore (closed ());
  Gc.compact ();
  let pass_s chunks = Array.fold_left ( +. ) 0. chunks in
  (* Each lookup's latency is its least over the open-loop passes: the
     same request, due at the same offset, behind the same commits.  The
     passes fold into one running least, so what the run holds does not
     grow with the number of passes it makes. *)
  let least_ns = Array.make n max_int and loops = ref 0 in
  let keep_least (l : Kit.open_loop) =
    incr loops;
    Array.iteri (fun i ns -> if ns < least_ns.(i) then least_ns.(i) <- ns) l.Kit.latency_ns
  in
  let lookup_percentiles () =
    let us = ref [] in
    for i = n - 1 downto 0 do
      if data.Ctxw.lookups.(i) then us := (1e-3 *. float_of_int least_ns.(i)) :: !us
    done;
    percentiles
      ~what:(Printf.sprintf "lookup from due time, best of %d passes" !loops)
      (Array.of_list !us)
  in
  if not trace then (
    let rounds =
      rounds_until ~seconds (fun () ->
          let setup_s = regenerate () in
          keep_least (open_pass ());
          (setup_s, List.init 3 (fun _ -> let _, chunks, _ = closed () in chunks)))
    in
    let passes = List.concat_map snd rounds in
    let closed_s = best_time passes in
    Printf.eprintf "closed-loop passes: %d, best %.1f ms, chunk-best sum %.1f ms\n"
      (List.length passes)
      (1e3 *. best (List.map pass_s passes))
      (1e3 *. closed_s);
    let p50, _ = lookup_percentiles () in
    [
      ("setup_s", best (first_setup_s :: List.map fst rounds));
      ("sim_s_per_s", data.Ctxw.span_s /. closed_s);
      ("ops_per_s", float_of_int n /. closed_s);
      ("service_p50_us", p50);
    ])
  else
    let rounds =
      rounds_until ~seconds (fun () ->
          let _, plain, gc = closed () in
          let traced, traced_chunks, _ = closed ~traced:true () in
          (pass_s plain, gc, traced, pass_s traced_chunks, open_pass ()))
    in
    let traced = List.map (fun (_, _, p, _, _) -> p) rounds in
    let loops = List.map (fun (_, _, _, _, l) -> l) rounds in
    List.iter keep_least loops;
    let _, gc, _, _, _ = List.hd rounds in
    let layer f =
      sumi (fun (p : Ctxw.pass) -> match p.Ctxw.layers with Some l -> f l | None -> 0) traced
    in
    let passes = List.length traced in
    let lookups = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 data.Ctxw.lookups in
    let last = List.nth traced (passes - 1) in
    let server = last.Ctxw.server in
    let late =
      Array.concat (List.map (fun (l : Kit.open_loop) -> Array.map float_of_int l.Kit.late_ns) loops)
    in
    [
      ("ctx.handle_ns.lookup", ns_per (layer (fun l -> l.Ctxw.handle_lookup)) (passes * lookups));
      ( "ctx.handle_ns.report",
        ns_per (layer (fun l -> l.Ctxw.handle_report)) (passes * (n - lookups)) );
      ("ctx.stalls", ratio (float_of_int (layer (fun l -> l.Ctxw.stalls))) (float_of_int passes));
      ("ctx.flushes", float_of_int (Phi.Context_server.flush_count server));
      ("ctx.evictions", float_of_int (Phi.Context_server.eviction_count server));
      ("ctx.resident_paths", float_of_int (Phi.Context_server.resident_paths server));
      ("ctx.stale_answers", float_of_int last.Ctxw.stale_answers);
      ("wire.decode_ns", ns_per (layer (fun l -> l.Ctxw.decode)) (2 * passes * n));
      ("wire.encode_ns", ns_per (layer (fun l -> l.Ctxw.encode)) (passes * n));
      ("wire.bytes_per_op", ns_per last.Ctxw.bytes n);
      ("policy.choice_ns", ns_per (layer (fun l -> l.Ctxw.choice)) (passes * lookups));
      ("gc.minor_words_per_op", gc.minor_words /. float_of_int n);
      ("gc.major_collections", float_of_int gc.major_collections);
      ("loadgen.late_us_p99", (Kit.percentile late ~p:99.).Kit.value *. 1e-3);
      ( "loadgen.max_backlog",
        float_of_int
          (List.fold_left (fun acc (l : Kit.open_loop) -> Stdlib.max acc l.Kit.max_backlog) 0 loops) );
      ( "trace.overhead",
        ratio
          (best (List.map (fun (_, _, _, t, _) -> t) rounds))
          (best (List.map (fun (p, _, _, _, _) -> p) rounds))
        -. 1. );
      ("service.p99_us", snd (lookup_percentiles ()));
      ("service.samples", float_of_int lookups);
    ]

(* {2 Command line} *)

let usage () =
  prerr_endline
    ("usage: phibench --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace {0|1}");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest ->
      seed := (match int_of_string_opt s with Some s -> s | None -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s -> s | None -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> 0 | "1" -> 1 | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let () =
  let workload, seed, seconds, trace = parse_args () in
  pin_gc ();
  let ledger = Kit.ledger () in
  let run =
    match workload with
    | "dumbbell_sweep" -> dumbbell_sweep
    | "parking_lot_pdes" -> parking_lot_pdes
    | "wan_dynamics" -> wan_dynamics
    | _ -> context_service
  in
  let wall0 = Kit.now_ns () and cpu0 = cpu_s () in
  let measured = run ledger ~seed ~seconds ~trace in
  let cpu_per_wall = ratio (cpu_s () -. cpu0) (Kit.seconds_of_ns (Kit.now_ns () - wall0)) in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let speed = Kit.host_speed host in
  Printf.eprintf "host speed %.4f: integer loop best %d ns, chase best %d ns, %d samples\n"
    speed host.Kit.arith_ns host.Kit.chase_ns host.Kit.samples;
  let values =
    measured
    @ [
        (* The probe's ring is the benchmark's, not the program's. *)
        ("peak_rss_mb", peak_rss_mb () -. (float_of_int Kit.ring_bytes /. 1048576.));
        ("host.cpu_per_wall", cpu_per_wall);
        ("host.speed", speed);
        ("gc.top_heap_mb", top_heap_mb);
        ("bench.error_rate", Kit.error_rate ledger);
      ]
  in
  (* A layer the workload does not exercise reads 0.  Timings are
     reported at nominal host speed; stderr keeps them as read. *)
  let metrics =
    List.map
      (fun (m : Kit.metric) ->
        let read = Option.value (List.assoc_opt m.Kit.name values) ~default:0. in
        let v = Kit.at_nominal ~speed m read in
        if v <> read then Printf.eprintf "%s: %.6g as read, %.6g at nominal speed\n" m.Kit.name read v;
        if Float.is_finite v then (m, v)
        else (
          Kit.fail ledger (m.Kit.name ^ " is not finite");
          (m, 0.)))
      (if trace then Kit.per_layer else Kit.end_to_end)
  in
  List.iter (Printf.eprintf "failure: %s\n") (List.rev ledger.Kit.reasons);
  Printf.eprintf "%s: attempted %d, failed %d\n%!" workload ledger.Kit.attempted ledger.Kit.failed;
  print_endline
    (Kit.result_json ~correct:(ledger.Kit.failed = 0) ~attempted:ledger.Kit.attempted
       ~failed:ledger.Kit.failed metrics)
