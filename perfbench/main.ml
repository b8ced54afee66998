(* Command line of the benchmark; see bench.ml and README.md. *)

open Bench

(* [--workload all] runs each workload in a process of its own, with the
   same arguments, so no workload sees another's heap, peak or timings.
   Each prints its own result line; the exit code is the worst of them. *)
let run_each names =
  let argv = Sys.argv in
  let codes =
    List.map
      (fun name ->
        let args =
          Array.mapi
            (fun i a -> if i > 0 && argv.(i - 1) = "--workload" then name else a)
            argv
        in
        flush stdout;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | _ -> 1)
      names
  in
  exit (List.fold_left max 0 codes)

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 20.0 and trace = ref 0 and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME long_seq | hot_shard | explore_lease | all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics, tracing off; 1: per-layer (traced) run");
      ("--commit", Arg.Set_string commit, "SHA git commit recorded in the results");
    ]
  in
  let usage = "bench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let chosen = List.find_opt (fun w -> w.name = !workload) workloads in
  if (chosen = None && !workload <> "all") || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage spec usage;
    exit 2
  end;
  match chosen with
  | None -> run_each (List.map (fun w -> w.name) workloads)
  | Some w ->
      let o =
        try run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~commit:!commit
        with e ->
          Printf.printf "  FAIL %s: %s\n" w.name (Printexc.to_string e);
          { o_correct = false; o_attempted = 1; o_failed = 1; o_metrics = [] }
      in
      print_endline
        (H.json_obj
           [
             ("correct", string_of_bool o.o_correct);
             ("attempted", string_of_int o.o_attempted);
             ("failed", string_of_int o.o_failed);
             (* A per-layer metric that does not apply to the workload
                reads 0 here; the result record lists it under
                not_applicable. *)
             ( "metrics",
               metric_json
                 (List.map
                    (fun x -> if x.value = None then { x with value = Some 0.0 } else x)
                    o.o_metrics) );
           ]);
      exit (if o.o_correct then 0 else 1)
