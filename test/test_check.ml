(* The CI report gate (Phi_check.Report_check): a well-formed /8 report
   passes; dropping any registered section from an un-narrowed report,
   or stamping any other schema, fails; and injected regressions on an
   otherwise-full report — swarm throughput below the floor, p99 over
   budget, allocation over budget, decision-plane speedup below the
   floor or lookups that box, pdes determinism or scaling broken,
   wan_matrix fairness/FCT out of range or serial-probe divergence —
   trip it.  This is the acceptance proof that the gate actually
   gates. *)

module J = Phi_util.Json
module Check = Phi_check.Report_check

let experiments =
  J.List [ J.Obj [ ("id", J.String "swarm"); ("wall_s", J.float 16.4); ("cells", J.Int 8) ] ]

let alloc ?(minor_words_per_packet = 0.0) () =
  J.Obj
    [
      ("minor_words_per_event", J.float 12.5);
      ("minor_words_per_packet", J.float minor_words_per_packet);
      ("pool_high_water", J.Int 64);
    ]

(* One cell per registered algorithm: an un-narrowed run must cover the
   whole registry. *)
let cc_matrix ?(drop_first_algorithm = false) () =
  let names =
    match Phi.Cc_algo.names with
    | _ :: rest when drop_first_algorithm -> rest
    | names -> names
  in
  J.List
    (List.map
       (fun name ->
         J.Obj
           [
             ("algorithm", J.String name);
             ("workload", J.String "paper");
             ("mean_power", J.float 1.0);
             ("connections", J.Int 8);
           ])
       names)

let swarm ?(lookups_per_s = 60_000.) ?(p99_lookup_s = 4e-6) ?(jain = 0.3) ?(lookups = 1_000_000)
    () =
  J.Obj
    [
      ("flows", J.Int 1_000_000);
      ("lookups", J.Int lookups);
      ("reports", J.Int 1_000_000);
      ("lookups_per_s", J.float lookups_per_s);
      ("reports_per_s", J.float lookups_per_s);
      ("p50_lookup_s", J.float 1e-6);
      ("p99_lookup_s", J.float p99_lookup_s);
      ("jain_index", J.float jain);
      ("resident_paths", J.Int 5231);
      ("evictions", J.Int 6034);
      ("flushes", J.Int 34719);
      ("fingerprint", J.String "flows=1000000 checksum=c074b375");
    ]

let decision ?(speedup = 150.) ?(minor_words_per_lookup = 0.0) () =
  J.Obj
    [
      ("whiskers", J.Int 512);
      ("cells", J.Int 4000);
      ("points", J.Int 10_000);
      ("interpreted_lookups_per_s", J.float 150_000.);
      ("compiled_lookups_per_s", J.float (150_000. *. speedup));
      ("speedup", J.float speedup);
      ("minor_words_per_lookup", J.float minor_words_per_lookup);
      ("policy_interpreted_choices_per_s", J.float 6_500_000.);
      ("policy_compiled_choices_per_s", J.float 24_000_000.);
      ("policy_speedup", J.float 3.7);
    ]

(* One point of the parking-lot scaling curve; identical fingerprints
   and event counts by default, as determinism demands. *)
let pdes_run ?(jobs = 1) ?(wall_s = 8.0) ?(events = 750_000)
    ?(fingerprint = "senders=1000 events=750000 boundary=50000 retx=900 checksum=757e1b62") () =
  J.Obj
    [
      ("jobs", J.Int jobs);
      ("wall_s", J.float wall_s);
      ("events", J.Int events);
      ("events_per_s", J.float (float_of_int events /. wall_s));
      ("fingerprint", J.String fingerprint);
    ]

let pdes ?(cores = 4)
    ?(runs = [ pdes_run (); pdes_run ~jobs:2 ~wall_s:4.2 (); pdes_run ~jobs:4 ~wall_s:2.3 () ])
    () =
  J.Obj
    [
      ("islands", J.Int 4);
      ("window_s", J.float 0.01);
      ("senders", J.Int 1000);
      ("duration_s", J.float 8.);
      ("cores", J.Int cores);
      ("jobs", J.Int 4);
      ("runs", J.List runs);
    ]

(* One cell of the topology-zoo evaluation matrix, physically sane by
   default. *)
let wan_cell ?(algorithm = "cubic") ?(topology = "wan") ?(dynamics = "flap")
    ?(throughput_bps = 3.7e6) ?(loss_rate = 0.02) ?(jain = 0.54) ?(p99_fct_s = 1.8)
    ?(connections = 54) () =
  J.Obj
    [
      ("algorithm", J.String algorithm);
      ("topology", J.String topology);
      ("dynamics", J.String dynamics);
      ("aqm", J.String "droptail");
      ("throughput_bps", J.float throughput_bps);
      ("delay_s", J.float 0.138);
      ("queueing_delay_s", J.float 0.018);
      ("loss_rate", J.float loss_rate);
      ("power", J.float 26.3);
      ("jain", J.float jain);
      ("p99_fct_s", J.float p99_fct_s);
      ("connections", J.Int connections);
    ]

let wan_matrix ?(duration_s = 6.) ?(cells = [ wan_cell () ])
    ?(serial = "0x1.c4fp+21;0x1.1aap-3;0x1.169p-1;0x1.c89p+0;0x1.a3fp+4;54")
    ?probe_parallel () =
  let parallel = match probe_parallel with Some p -> p | None -> serial in
  J.Obj
    [
      ("duration_s", J.float duration_s);
      ("seeds", J.Int 1);
      ("jobs", J.Int 4);
      ("aqm", J.String "droptail");
      ("cells", J.List cells);
      ( "determinism",
        J.Obj
          [
            ("cell", J.String "cubic/wan/flap");
            ("parallel", J.String parallel);
            ("serial", J.String serial);
          ] );
    ]

let micro () =
  J.Obj
    [
      ("quick", J.Bool true);
      ( "events",
        J.Obj
          [
            ("events", J.Int 200_000);
            ("chains", J.Int 8192);
            ("legacy_events_per_s", J.float 1.1e6);
            ("new_events_per_s", J.float 3.2e6);
            ("port_events_per_s", J.float 3.5e6);
            ("speedup_vs_legacy", J.float 3.0);
            ("port_speedup_vs_legacy", J.float 3.3);
          ] );
      ( "packets",
        J.Obj
          [
            ("link_loop_packets", J.Int 100_031);
            ("link_loop_packets_per_s", J.float 5.2e6);
            ("dumbbell_sim_s", J.float 10.);
            ("dumbbell_data_packets", J.Int 9799);
            ("dumbbell_packets_per_s", J.float 1.8e5);
          ] );
    ]

(* Every section a full run emits, sane by default. *)
let full_sections () =
  [
    ("cc_matrix", cc_matrix ());
    ("swarm", swarm ());
    ("pdes", pdes ());
    ("wan_matrix", wan_matrix ());
    ("alloc", alloc ());
    ("decision", decision ());
    ("micro", micro ());
  ]

(* A full report with the sections in [set] replacing their defaults and
   those in [without] left out; [narrowed] adds the "only"/"cc" fields a
   narrowed run records. *)
let report ?(schema = Check.schema) ?(narrowed = []) ?(without = []) ?(set = []) () =
  J.Obj
    ([
       ("schema", J.String schema);
       ("budget", J.String "quick (4-point grid, 2 seeds, 45 s runs)");
       ("jobs", J.Int 4);
       ("cores", J.Int 4);
     ]
    @ narrowed
    @ [ ("experiments", experiments); ("headline", J.Obj []) ]
    @ List.filter_map
        (fun (name, default) ->
          if List.mem name without then None
          else Some (name, Option.value (List.assoc_opt name set) ~default))
        (full_sections ()))

(* A --only NAME run: just that one section. *)
let only name section =
  report
    ~narrowed:[ ("only", J.String name) ]
    ~without:(List.filter (fun n -> n <> name) Check.sections)
    ~set:[ (name, section) ]
    ()

let check doc = Check.check ~path:"report.json" doc

let expect_pass what doc =
  match check doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s should pass the gate but failed: %s" what msg

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let expect_fail what ~mentioning doc =
  match check doc with
  | Ok () -> Alcotest.failf "%s should trip the gate but passed" what
  | Error msg ->
    if not (contains ~needle:mentioning msg) then
      Alcotest.failf "%s tripped the gate but for the wrong reason: %s" what msg

let test_valid_reports_pass () =
  expect_pass "a full /8 report" (report ());
  expect_pass "a run narrowed by --only" (only "swarm" (swarm ()));
  expect_pass "a run narrowed by --cc to part of the registry"
    (report
       ~narrowed:[ ("cc", J.String "cubic") ]
       ~set:[ ("cc_matrix", cc_matrix ~drop_first_algorithm:true ()) ]
       ())

let test_every_section_required () =
  Alcotest.(check (list string))
    "the fixture covers every registered section" Check.sections
    (List.map fst (full_sections ()));
  List.iter
    (fun name ->
      expect_fail
        (Printf.sprintf "a report without %s" name)
        ~mentioning:(Printf.sprintf "requires a \"%s\" section" name)
        (report ~without:[ name ] ()))
    Check.sections

let test_swarm_throughput_gate () =
  (* An order-of-magnitude slowdown must fail CI. *)
  expect_fail "lookups/s below the committed floor" ~mentioning:"below the committed floor"
    (report ~set:[ ("swarm", swarm ~lookups_per_s:6_000. ()) ] ());
  (* The floor applies whenever the section is present — an --only
     swarm smoke is gated too. *)
  expect_fail "an --only swarm report with a slow swarm section"
    ~mentioning:"below the committed floor"
    (only "swarm" (swarm ~lookups_per_s:6_000. ()))

let test_swarm_latency_gate () =
  expect_fail "p99 over the latency budget" ~mentioning:"exceeds the budget"
    (report ~set:[ ("swarm", swarm ~p99_lookup_s:0.25 ()) ] ())

let test_swarm_structure_gate () =
  expect_fail "a report without a swarm section" ~mentioning:"requires a \"swarm\" section"
    (report ~without:[ "swarm" ] ());
  expect_fail "collapsed shard balance" ~mentioning:"shard balance collapsed"
    (report ~set:[ ("swarm", swarm ~jain:0.01 ()) ] ());
  expect_fail "broken flow accounting" ~mentioning:"flow accounting"
    (report ~set:[ ("swarm", swarm ~lookups:999_999 ()) ] ())

let test_alloc_gate () =
  expect_fail "allocation regression" ~mentioning:"allocation regression"
    (report ~set:[ ("alloc", alloc ~minor_words_per_packet:3.2 ()) ] ())

let test_cc_matrix_gate () =
  expect_fail "cc_matrix missing a registered algorithm" ~mentioning:"does not cover"
    (report ~set:[ ("cc_matrix", cc_matrix ~drop_first_algorithm:true ()) ] ());
  (* Only --cc excuses partial coverage; --only matrix runs the whole
     registry. *)
  expect_fail "an --only matrix report missing an algorithm" ~mentioning:"does not cover"
    (only "cc_matrix" (cc_matrix ~drop_first_algorithm:true ()))

let test_decision_speedup_gate () =
  (* The flat table degenerating back into a scan must fail CI. *)
  expect_fail "speedup below the committed floor" ~mentioning:"only 4.0x"
    (report ~set:[ ("decision", decision ~speedup:4. ()) ] ());
  (* The floor applies whenever the section is present. *)
  expect_fail "an --only decision report with a slow decision section"
    ~mentioning:"only 4.0x"
    (only "decision" (decision ~speedup:4. ()))

let test_decision_alloc_gate () =
  (* One boxed float on the lookup path is 2 words/lookup — far over. *)
  expect_fail "lookups that box" ~mentioning:"minor words/lookup exceeds"
    (report ~set:[ ("decision", decision ~minor_words_per_lookup:2.0 ()) ] ())

let test_decision_structure_gate () =
  expect_fail "a report without a decision section"
    ~mentioning:"requires a \"decision\" section"
    (report ~without:[ "decision" ] ())

let with_pdes ?cores ?runs () = report ~set:[ ("pdes", pdes ?cores ?runs ()) ] ()

let test_pdes_determinism_gate () =
  (* A jobs-dependent fingerprint means the partitioned engine is not
     replaying the serial schedule — the whole contract. *)
  expect_fail "fingerprint divergence" ~mentioning:"determinism broken"
    (with_pdes
       ~runs:[ pdes_run (); pdes_run ~jobs:2 ~fingerprint:"checksum=deadbeef" () ]
       ());
  expect_fail "event count divergence" ~mentioning:"determinism broken"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~events:749_999 () ] ());
  (* The gate applies whenever the section is present. *)
  expect_fail "an --only pdes report with a diverging pdes section"
    ~mentioning:"determinism broken"
    (only "pdes" (pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~fingerprint:"x" () ] ()))

let test_pdes_scaling_gate () =
  (* 1.38x at 4 domains on a 4-core box is a scaling regression... *)
  expect_fail "speedup below the committed floor" ~mentioning:"scaling regression"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:4 ~wall_s:5.8 () ] ());
  (* ...but the same curve on a 1-core box is unmeasurable, and a curve
     with no >= 4-domain run has nothing to hold to the floor. *)
  expect_pass "slow scaling on a 1-core box"
    (with_pdes ~cores:1 ~runs:[ pdes_run (); pdes_run ~jobs:4 ~wall_s:5.8 () ] ());
  expect_pass "no 4-domain run recorded"
    (with_pdes ~runs:[ pdes_run (); pdes_run ~jobs:2 ~wall_s:4.4 () ] ())

let test_pdes_structure_gate () =
  expect_fail "a report without a pdes section" ~mentioning:"requires a \"pdes\" section"
    (report ~without:[ "pdes" ] ());
  expect_fail "empty runs array" ~mentioning:"non-empty \"runs\""
    (with_pdes ~runs:[] ());
  expect_fail "run without a fingerprint" ~mentioning:"fingerprint"
    (with_pdes ~runs:[ pdes_run ~fingerprint:"" () ] ())

let test_wan_matrix_sanity_gate () =
  (* Jain is a mean of ratios in (0, 1]; anything outside means the
     per-source byte accounting broke. *)
  expect_fail "jain over 1" ~mentioning:"\"jain\" must be in (0, 1]"
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[ wan_cell ~jain:1.2 () ] ()) ] ());
  expect_fail "jain of 0" ~mentioning:"\"jain\" must be in (0, 1]"
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[ wan_cell ~jain:0. () ] ()) ] ());
  (* FCTs are measured inside the run, so p99 past the cell duration is
     a bookkeeping bug, not a slow network. *)
  expect_fail "p99 FCT past the cell duration" ~mentioning:"outside (0, 6]"
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[ wan_cell ~p99_fct_s:7.5 () ] ()) ] ());
  expect_fail "cell with no completed connections" ~mentioning:"positive \"connections\""
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[ wan_cell ~connections:0 () ] ()) ] ());
  expect_fail "loss rate over 1" ~mentioning:"\"loss_rate\" must be in [0, 1]"
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[ wan_cell ~loss_rate:1.5 () ] ()) ] ());
  (* The gate applies whenever the section is present — the --quick
     --only wan_matrix smoke is gated too. *)
  expect_fail "an --only wan_matrix report with an unfair cell" ~mentioning:"(0, 1]"
    (only "wan_matrix" (wan_matrix ~cells:[ wan_cell ~jain:1.2 () ] ()))

let test_wan_matrix_determinism_gate () =
  (* A pool-fanned cell that disagrees with its serial replay means the
     matrix is jobs-dependent — the contract run_matrix promises. *)
  expect_fail "serial probe divergence" ~mentioning:"determinism broken"
    (report ~set:[ ("wan_matrix", wan_matrix ~probe_parallel:"0x1.deadbeefp+0;54" ()) ] ())

let test_wan_matrix_structure_gate () =
  expect_fail "a report without a wan_matrix section"
    ~mentioning:"requires a \"wan_matrix\" section"
    (report ~without:[ "wan_matrix" ] ());
  expect_fail "empty cells array" ~mentioning:"non-empty \"cells\""
    (report ~set:[ ("wan_matrix", wan_matrix ~cells:[] ()) ] ());
  expect_fail "missing determinism probe" ~mentioning:"\"determinism\" probe"
    (report
       ~set:
         [ ("wan_matrix", J.Obj [ ("duration_s", J.float 6.); ("cells", J.List [ wan_cell () ]) ]) ]
       ())

let test_schema_gate () =
  expect_fail "unknown schema" ~mentioning:"unknown \"schema\""
    (report ~schema:"phi-bench-report/99" ());
  (* The historical stamps /1-/7 described a report assembled by two
     binaries; none is accepted, even on an otherwise-full report. *)
  for v = 1 to 7 do
    expect_fail
      (Printf.sprintf "historical schema /%d" v)
      ~mentioning:"unknown \"schema\""
      (report ~schema:(Printf.sprintf "phi-bench-report/%d" v) ())
  done

let suite =
  [
    Alcotest.test_case "well-formed reports pass" `Quick test_valid_reports_pass;
    Alcotest.test_case "every registered section is required" `Quick
      test_every_section_required;
    Alcotest.test_case "swarm throughput floor trips" `Quick test_swarm_throughput_gate;
    Alcotest.test_case "swarm p99 budget trips" `Quick test_swarm_latency_gate;
    Alcotest.test_case "swarm structure is enforced" `Quick test_swarm_structure_gate;
    Alcotest.test_case "allocation budget trips" `Quick test_alloc_gate;
    Alcotest.test_case "cc_matrix coverage is enforced" `Quick test_cc_matrix_gate;
    Alcotest.test_case "decision speedup floor trips" `Quick test_decision_speedup_gate;
    Alcotest.test_case "decision allocation budget trips" `Quick test_decision_alloc_gate;
    Alcotest.test_case "decision structure is enforced" `Quick test_decision_structure_gate;
    Alcotest.test_case "pdes determinism gate trips" `Quick test_pdes_determinism_gate;
    Alcotest.test_case "pdes scaling floor trips" `Quick test_pdes_scaling_gate;
    Alcotest.test_case "pdes structure is enforced" `Quick test_pdes_structure_gate;
    Alcotest.test_case "wan_matrix sanity gates trip" `Quick test_wan_matrix_sanity_gate;
    Alcotest.test_case "wan_matrix determinism gate trips" `Quick test_wan_matrix_determinism_gate;
    Alcotest.test_case "wan_matrix structure is enforced" `Quick test_wan_matrix_structure_gate;
    Alcotest.test_case "unknown schemas are rejected" `Quick test_schema_gate;
  ]
