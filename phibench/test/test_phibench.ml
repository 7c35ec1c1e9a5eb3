(* Unit tests of the benchmark's own machinery. *)

module Kit = Phibench_kit.Kit
module Json = Phi_util.Json

let ints lo hi = Array.init (hi - lo + 1) (fun i -> float_of_int (lo + i))

(* {2 Percentiles} *)

let test_nearest_rank () =
  let xs = ints 1 100 in
  let p50 = Kit.percentile xs ~p:50. in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. p50.Kit.value;
  Alcotest.(check int) "p50 samples" 100 p50.Kit.samples;
  Alcotest.(check int) "p50 beyond" 50 p50.Kit.beyond;
  let p99 = Kit.percentile xs ~p:99. in
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. p99.Kit.value;
  Alcotest.(check int) "p99 beyond" 1 p99.Kit.beyond;
  Alcotest.(check bool) "one sample beyond is not resolved" false (Kit.resolved p99)

let test_resolution_needs_ten_beyond () =
  let p99 = Kit.percentile (ints 1 1000) ~p:99. in
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. p99.Kit.value;
  Alcotest.(check int) "ten beyond" 10 p99.Kit.beyond;
  Alcotest.(check bool) "resolved" true (Kit.resolved p99);
  let p99 = Kit.percentile (ints 1 999) ~p:99. in
  Alcotest.(check bool) "nine beyond is not" false (Kit.resolved p99)

let test_order_and_small_samples () =
  let shuffled = [| 5.; 1.; 4.; 2.; 3. |] in
  let p = Kit.percentile shuffled ~p:50. in
  Alcotest.(check (float 0.)) "unsorted input" 3. p.Kit.value;
  Alcotest.(check (float 0.)) "input untouched" 5. shuffled.(0);
  let one = Kit.percentile [| 7. |] ~p:99. in
  Alcotest.(check (float 0.)) "single sample" 7. one.Kit.value;
  Alcotest.(check int) "single sample count" 1 one.Kit.samples;
  Alcotest.check_raises "no samples" (Invalid_argument "Kit.percentile: no samples") (fun () ->
      ignore (Kit.percentile [||] ~p:50.))

(* {2 Open-loop due-time accounting} *)

(* A fake clock: every read advances it by 1 ns, and serving request
   [i] costs [cost i] ns. *)
let fake_loop ~interval_ns ~n cost =
  let now = ref 0 in
  let clock () =
    incr now;
    !now
  in
  Kit.open_loop ~clock ~interval_ns ~n (fun i -> now := !now + cost i)

let test_stall_charged_to_later_requests () =
  let r = fake_loop ~interval_ns:1000 ~n:20 (fun i -> if i = 2 then 5_000 else 100) in
  Alcotest.(check bool) "steady requests are on time" true (r.Kit.late_ns.(1) <= 2);
  Alcotest.(check bool) "the stalled request pays its stall" true (r.Kit.latency_ns.(2) >= 5_000);
  (* Request 3 was due 1000 ns after 2 but could only start when 2
     finished, ~4000 ns late; its latency counts that wait. *)
  Alcotest.(check bool) "request 3 starts late" true (r.Kit.late_ns.(3) >= 4_000);
  Alcotest.(check bool) "and is charged from its due time" true (r.Kit.latency_ns.(3) >= 4_100);
  Alcotest.(check bool) "later requests still queue" true (r.Kit.late_ns.(5) >= 2_000);
  Alcotest.(check bool) "the backlog drains" true (r.Kit.late_ns.(15) <= 2);
  Alcotest.(check bool) "backlog counts the overdue requests" true (r.Kit.max_backlog >= 5)

let test_no_stall_no_backlog () =
  let r = fake_loop ~interval_ns:1000 ~n:50 (fun _ -> 100) in
  Alcotest.(check int) "one request due at a time" 1 r.Kit.max_backlog;
  Array.iter (fun l -> Alcotest.(check bool) "latency is the service time" true (l < 200)) r.Kit.latency_ns

(* {2 Metric names} *)

let test_grammar () =
  List.iter
    (fun (m : Kit.metric) ->
      Alcotest.(check bool) ("name " ^ m.Kit.name) true (Kit.valid_name m.Kit.name);
      Alcotest.(check bool) ("unit " ^ m.Kit.unit_) true (Kit.valid_unit m.Kit.unit_))
    (Kit.end_to_end @ Kit.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Kit.valid_name bad))
    [ ""; "_lead"; ".lead"; "has space"; "semi;colon"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters is the limit" true (Kit.valid_name (String.make 64 'a'));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects unit " ^ bad) false (Kit.valid_unit bad))
    [ ""; "m s"; String.make 17 's' ];
  let names = List.map (fun (m : Kit.metric) -> m.Kit.name) (Kit.end_to_end @ Kit.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let string_member key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> Alcotest.failf "missing %s" key

let test_declared_metrics () =
  let bench =
    match Json.of_file ~path:"../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let declared key =
    match Json.member key bench with
    | Some (Json.List ms) -> List.map (fun m -> (string_member "name" m, string_member "unit" m)) ms
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  let ours ms = List.map (fun (m : Kit.metric) -> (m.Kit.name, m.Kit.unit_)) ms in
  Alcotest.(check (list (pair string string))) "end_to_end" (ours Kit.end_to_end) (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" (ours Kit.per_layer) (declared "per_layer")

(* {2 Correctness ledger} *)

let test_mismatch_raises_error_rate () =
  let l = Kit.ledger () in
  let run fp = ignore (Kit.attempt l (fun () -> Kit.check l ~key:"cell" fp)) in
  run "abc";
  run "abc";
  Alcotest.(check (float 0.)) "matching fingerprints" 0. (Kit.error_rate l);
  run "abd";
  Alcotest.(check int) "mismatch fails" 1 l.Kit.failed;
  Alcotest.(check (float 1e-12)) "error rate" (1. /. 3.) (Kit.error_rate l);
  ignore (Kit.attempt l (fun () -> failwith "boom"));
  Alcotest.(check int) "a raise fails" 2 l.Kit.failed;
  Alcotest.(check int) "attempted" 4 l.Kit.attempted;
  let fresh = Kit.ledger () in
  Alcotest.(check (float 0.)) "nothing attempted counts as all failed" 1. (Kit.error_rate fresh)

let test_result_line () =
  let m = List.hd Kit.end_to_end in
  let line = Kit.result_json ~correct:true ~attempted:3 ~failed:0 [ (m, 0.8127) ] in
  match Json.of_string line with
  | Error e -> Alcotest.failf "result line does not parse: %s" e
  | Ok j ->
    let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] keys;
    Alcotest.(check bool) "one line" false (String.contains line '\n')

(* {2 Host speed} *)

let test_at_nominal () =
  let find name = List.find (fun (m : Kit.metric) -> m.Kit.name = name) Kit.end_to_end in
  let speed = 0.8 in
  Alcotest.(check (float 1e-12)) "a time read on a slow host shrinks" 0.8
    (Kit.at_nominal ~speed (find "setup_s") 1.);
  Alcotest.(check (float 1e-12)) "a rate read on a slow host grows" 125.
    (Kit.at_nominal ~speed (find "sim_s_per_s") 100.);
  Alcotest.(check (float 0.)) "memory is not a timing" 7.5
    (Kit.at_nominal ~speed (find "peak_rss_mb") 7.5);
  List.iter
    (fun (m : Kit.metric) ->
      Alcotest.(check (float 0.)) (m.Kit.name ^ " is reported as read") 3. (Kit.at_nominal ~speed m 3.))
    Kit.per_layer

let test_speed () =
  let a = Kit.nominal_arith_ns and c = Kit.nominal_chase_ns in
  Alcotest.(check (float 1e-12)) "nominal host" 1. (Kit.speed ~arith_ns:a ~chase_ns:c);
  Alcotest.(check (float 1e-12)) "twice as slow" 0.5 (Kit.speed ~arith_ns:(2 * a) ~chase_ns:(2 * c));
  Alcotest.(check (float 1e-12)) "geometric mean" 0.5 (Kit.speed ~arith_ns:a ~chase_ns:(4 * c));
  let h = Kit.host () in
  Alcotest.(check (float 0.)) "no sample, no correction" 1. (Kit.host_speed h);
  Kit.sample_host h;
  Alcotest.(check int) "one sample" 1 h.Kit.samples;
  Alcotest.(check bool) "a speed" true (Kit.host_speed h > 0.)

(* The chase must walk one cycle through every slot of the ring. *)
let test_ring_is_one_cycle () =
  let h = Kit.host () in
  let rec walk j steps = if steps > 0 && j = 0 then steps else walk h.Kit.ring.{j} (steps + 1) in
  Alcotest.(check int) "cycle length" Kit.chase_slots (walk h.Kit.ring.{0} 1)

let () =
  Alcotest.run "phibench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank with sample count" `Quick test_nearest_rank;
          Alcotest.test_case "ten beyond to resolve" `Quick test_resolution_needs_ten_beyond;
          Alcotest.test_case "order and small samples" `Quick test_order_and_small_samples;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "stall charged to later requests" `Quick test_stall_charged_to_later_requests;
          Alcotest.test_case "no stall, no backlog" `Quick test_no_stall_no_backlog;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name grammar" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json declares them" `Quick test_declared_metrics;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("ledger", [ Alcotest.test_case "fingerprint mismatch" `Quick test_mismatch_raises_error_rate ]);
      ( "host speed",
        [
          Alcotest.test_case "timings at nominal speed" `Quick test_at_nominal;
          Alcotest.test_case "speed from the kernels" `Quick test_speed;
          Alcotest.test_case "ring is one cycle" `Quick test_ring_is_one_cycle;
        ] );
    ]
