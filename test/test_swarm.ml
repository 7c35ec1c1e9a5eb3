(* The swarm benchmark harness, on a reduced fleet: completion,
   structural sanity of the metrics, and the jobs-invariance of the
   deterministic fingerprint. *)

module Swarm = Phi_experiments.Swarm

let small =
  { Swarm.default_config with Swarm.n_flows = 20_000; Swarm.cells = 4; Swarm.shards_per_cell = 4 }

let test_swarm_completes () =
  let r = Swarm.run ~jobs:1 ~config:small () in
  Alcotest.(check int) "flows" 20_000 r.Swarm.flows;
  Alcotest.(check int) "one lookup per flow" 20_000 r.Swarm.lookups;
  Alcotest.(check int) "one report per flow" 20_000 r.Swarm.reports;
  Alcotest.(check bool) "jain in (0, 1]" true
    (r.Swarm.jain_index > 0. && r.Swarm.jain_index <= 1.);
  Alcotest.(check bool) "hash spreads load" true (r.Swarm.jain_index > 0.2);
  Alcotest.(check bool) "paths resident" true (r.Swarm.resident_paths > 0);
  Alcotest.(check bool) "epochs flushed" true (r.Swarm.flushes > 0);
  Alcotest.(check bool) "rates positive" true
    (r.Swarm.lookups_per_s > 0. && r.Swarm.reports_per_s > 0.);
  Alcotest.(check bool) "p99 at least p50" true (r.Swarm.p99_lookup_s >= r.Swarm.p50_lookup_s);
  Alcotest.(check bool) "latencies non-negative" true (r.Swarm.p50_lookup_s >= 0.)

(* A warm lookup is served in under a microsecond, so a clock that
   ticks in microseconds reads most of them as 0 and the median as
   exactly 0; the nanosecond monotonic clock must resolve it.  The fleet
   is large enough that the median comes from warm lookups. *)
let test_swarm_p50_resolves () =
  let r = Swarm.run ~jobs:1 ~config:{ small with Swarm.n_flows = 100_000 } () in
  Alcotest.(check bool) "p50 lookup latency above 0" true (r.Swarm.p50_lookup_s > 0.)

(* The fingerprint (counts, response checksum, residency, balance) must
   not depend on the domain fan-out; only the timing half may. *)
let test_swarm_fingerprint_jobs_invariant () =
  let serial = Swarm.run ~jobs:1 ~config:small () in
  let parallel = Swarm.run ~jobs:4 ~config:small () in
  Alcotest.(check string) "serial and parallel fingerprints identical" serial.Swarm.fingerprint
    parallel.Swarm.fingerprint

let test_swarm_seed_changes_fingerprint () =
  let a = Swarm.run ~jobs:2 ~config:small () in
  let b = Swarm.run ~jobs:2 ~config:{ small with Swarm.seed = small.Swarm.seed + 1 } () in
  Alcotest.(check bool) "different workload, different fingerprint" true
    (not (String.equal a.Swarm.fingerprint b.Swarm.fingerprint))

let suite =
  [
    Alcotest.test_case "swarm completes and reports sane metrics" `Quick test_swarm_completes;
    Alcotest.test_case "p50 lookup latency resolves" `Quick test_swarm_p50_resolves;
    Alcotest.test_case "fingerprint is jobs-invariant" `Quick
      test_swarm_fingerprint_jobs_invariant;
    Alcotest.test_case "fingerprint tracks the workload" `Quick
      test_swarm_seed_changes_fingerprint;
  ]
