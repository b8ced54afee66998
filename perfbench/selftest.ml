(* Tests of the benchmark's own helpers: the tail-percentile rule, the
   sampler's frame attribution, the failover interval, the host-speed
   calibration, and the hot_shard lane body against the library workload
   it mirrors. *)

module H = Helpers

let check_tail name n ~expect =
  let xs = List.init n (fun i -> float_of_int (i + 1)) in
  let got = Option.map (fun (p, _, n) -> (p, n)) (H.tail_percentile xs) in
  Alcotest.(check (option (pair (float 0.0) int))) name expect got

let percentile_rule () =
  check_tail "10000 samples support p99.9" 10_000 ~expect:(Some (99.9, 10_000));
  check_tail "1000 samples support p99" 1_000 ~expect:(Some (99.0, 1_000));
  check_tail "999 samples fall back to p95" 999 ~expect:(Some (95.0, 999));
  check_tail "200 samples support p95" 200 ~expect:(Some (95.0, 200));
  check_tail "199 samples fall back to p90" 199 ~expect:(Some (90.0, 199));
  check_tail "20 samples support only the median" 20 ~expect:(Some (50.0, 20));
  check_tail "19 samples support nothing" 19 ~expect:None;
  (* Nearest rank: p99 of 1..1000 is 990, with 10 samples above it. *)
  match H.tail_percentile (List.init 1000 (fun i -> float_of_int (i + 1))) with
  | Some (_, v, _) -> Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 v
  | None -> Alcotest.fail "no percentile"

let attribution () =
  let check name frames expect =
    Alcotest.(check (pair string string)) name expect (H.attribute frames)
  in
  check "a lib frame names its layer and module"
    [ "lib/replication/replica.ml" ] ("replication", "replica");
  check "stdlib frames go to their nearest lib caller"
    [ "list.ml"; "stdlib/hashtbl.ml"; "lib/core/checker.ml"; "lib/workload/runner.ml" ]
    ("core", "checker");
  check "frames outside the named layers pass on too"
    [ "lib/obs/xobs.ml"; "lib/sim/heap.ml"; "lib/sim/engine.ml" ] ("sim", "heap");
  check "the benchmark's own frames are other"
    [ "perfbench/bench.ml"; "lib/workload/runner.ml" ] ("other", "");
  check "no lib frame at all is other" [ "list.ml"; "std_exit.ml" ] ("other", "");
  check "an empty stack is other" [] ("other", "")

(* The live sampler charges time spent sorting inside
   [Xworkload.Stats] to lib/workload/stats.ml, not to the stdlib sort. *)
let sampler_live () =
  Hashtbl.reset Sampler.counts;
  Sampler.samples := 0;
  Sampler.start ~interval:0.001;
  let t0 = Unix.gettimeofday () in
  let xs = List.init 20_000 (fun i -> float_of_int ((i * 7919) mod 20_011)) in
  while Unix.gettimeofday () -. t0 < 0.3 do
    ignore (Xworkload.Stats.summarize xs)
  done;
  Sampler.stop ();
  Alcotest.(check bool) "samples taken" true (!Sampler.samples > 20);
  Alcotest.(check bool)
    "most samples in workload.stats" true
    (Sampler.self_pct ~m:"stats" "workload" > 50.0)

let failover () =
  let check name lanes expect =
    Alcotest.(check (option int)) name expect (H.failover_ticks ~crash:260 lanes)
  in
  check "one lane: last reply before to first reply after"
    [ [ 100; 200; 900; 1000 ] ] (Some 700);
  check "the longest lane gap wins"
    [ [ 100; 200; 900; 1000 ]; [ 150; 250; 300; 1100 ] ]
    (Some 700);
  check "a reply exactly at the crash counts as before"
    [ [ 100; 260; 400 ] ] (Some 140);
  check "no reply before the crash counts from 0" [ [ 500; 600 ] ] (Some 500);
  check "a lane that never replies after the crash" [ [ 100; 700 ]; [ 100 ] ] None;
  Alcotest.(check (option int)) "timelines are unordered" (Some 700)
    (H.failover_ticks ~crash:260 [ [ 1000; 900; 200; 100 ] ])

(* An interval is scaled by the marks right before and right after it. *)
let calibration () =
  let flt = Alcotest.(float 1e-9) in
  let nominal = Calib.nominal in
  Calib.reset ();
  Alcotest.(check flt) "no marks: wall seconds" 2.0 (Calib.seconds 1.0 3.0);
  (* Newest first: (start, end, reference seconds). *)
  Calib.marks := [ (20.0, 20.1, 4.0 *. nominal); (10.0, 10.1, 2.0 *. nominal); (0.0, 0.1, nominal) ];
  Alcotest.(check flt) "between two marks: their mean" 1.0 (Calib.seconds 1.0 2.5);
  Alcotest.(check flt) "the nearest marks only" 1.0 (Calib.seconds 11.0 14.0);
  Alcotest.(check flt) "after the last mark: that mark" 0.5 (Calib.seconds 21.0 23.0);
  Alcotest.(check flt) "a mark inside the interval is skipped" 6.0 (Calib.seconds 0.5 15.5);
  Calib.reset ()

(* The benchmark's hot_shard lane body issues exactly what
   [Workloads.sharded_mix ~undoable:false] issues. *)
let hot_lane_mirror () =
  let spec = { (Bench.hot_spec ~seed:5 ~crash_at:0) with Xworkload.Runner.crashes = [] } in
  let run workload =
    let r, _, d =
      Xworkload.Runner.run_sharded ~spec ~setup:Xworkload.Workloads.setup_all ~workload ()
    in
    ( Bench.result_fingerprint r,
      List.map Xsm.Request.key (Xshard.Deployment.issued d) )
  in
  let lib =
    run (fun _ d sess ->
        Xworkload.Workloads.sharded_mix ~undoable:false ~n:8
          ~cross_every:Bench.hot_cross_every d sess)
  in
  let mirror = run (fun _ d sess -> Bench.hot_lane ~n:8 ~on_reply:ignore d sess) in
  Alcotest.(check (list string)) "same requests" (snd lib) (snd mirror);
  Alcotest.(check string) "same run" (fst lib) (fst mirror)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench helpers",
        [
          Alcotest.test_case "tail percentile rule" `Quick percentile_rule;
          Alcotest.test_case "frame attribution" `Quick attribution;
          Alcotest.test_case "sampler attributes live samples" `Quick sampler_live;
          Alcotest.test_case "failover interval" `Quick failover;
          Alcotest.test_case "host-speed calibration" `Quick calibration;
          Alcotest.test_case "hot_shard lane mirrors sharded_mix" `Quick hot_lane_mirror;
        ] );
    ]
