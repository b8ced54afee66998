(* A SIGPROF stack sampler: every [interval] of process CPU time the
   handler captures the OCaml call stack and charges the sample to the
   innermost [lib/<layer>/] frame ({!Helpers.attribute}).  Its tallies
   live here, never in Xobs: host time is not part of the deterministic
   snapshots. *)

let counts : (string * string, int) Hashtbl.t = Hashtbl.create 64
let samples = ref 0

(* Source files of the frames, innermost first, without the handler's
   own frames (this file) on top. *)
let frames_of callstack =
  let files =
    match Printexc.backtrace_slots callstack with
    | None -> []
    | Some slots ->
        Array.to_list slots
        |> List.filter_map (fun s ->
               Option.map
                 (fun (l : Printexc.location) -> l.Printexc.filename)
                 (Printexc.Slot.location s))
  in
  let rec drop_own = function
    | f :: rest when f = __FILE__ -> drop_own rest
    | l -> l
  in
  drop_own files

let handler _ =
  let key = Helpers.attribute (frames_of (Printexc.get_callstack 256)) in
  incr samples;
  Hashtbl.replace counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))

let timer interval =
  { Unix.it_interval = interval; Unix.it_value = interval }

let start ~interval =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer interval))

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.0));
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* Share of all samples, in percent, charged to [layer] (and, when
   given, to module [m] of it). *)
let self_pct ?m layer =
  let hit =
    Hashtbl.fold
      (fun (l, m') n acc ->
        if l = layer && (m = None || m = Some m') then acc + n else acc)
      counts 0
  in
  if !samples = 0 then 0.0 else 100.0 *. float_of_int hit /. float_of_int !samples
