(* Host-speed calibration.

   On a shared host the same deterministic call can take half as long
   again from one minute to the next, because neighbours contend for the
   core, its caches and memory, and that drift outlasts a run.  So the
   benchmark times a fixed reference job between its timed calls (a
   "mark") and reports host seconds scaled to a host that runs the
   reference in [nominal] seconds: an interval's wall time times
   [nominal] over the mean reference time of the marks right before and
   right after it.  A slower host slows the reference and the call
   alike, so the scaled time stays put, while a change to the program
   moves the call and not the reference.

   The reference job allocates short-lived pairs, as the simulation
   allocates short-lived values at a high rate (tens of thousands of
   words per request), so it goes through the same allocator, minor
   collector, caches and memory.  Each pair dies at once, so a minor collection
   finds nothing alive: the job promotes nothing and leaves the heap
   peak alone.  It uses nothing from lib/.  Each mark first runs a full
   major collection, untimed, so no garbage of the calls it sits between
   is collected on its clock. *)

let reference () =
  let t0 = Unix.gettimeofday () in
  for i = 1 to 24_000_000 do
    ignore (Sys.opaque_identity (i, i + 1))
  done;
  Unix.gettimeofday () -. t0

(* Seconds of the reference job on the reference host. *)
let nominal = 0.05

(* Marks, newest first: (start, end, reference seconds). *)
let marks : (float * float * float) list ref = ref []
let reset () = marks := []

let mark () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let dt = reference () in
  marks := (t0, Unix.gettimeofday (), dt) :: !marks

(* Reference seconds of the last mark ending by [t0] and of the first
   mark starting from [t1], whichever exist. *)
let around t0 t1 =
  let before = List.find_opt (fun (_, e, _) -> e <= t0) !marks in
  let after =
    List.fold_left (fun acc ((s, _, _) as m) -> if s >= t1 then Some m else acc) None !marks
  in
  List.filter_map (Option.map (fun (_, _, dt) -> dt)) [ before; after ]

(* [seconds t0 t1]: the interval [t0, t1] in reference-host seconds, to be
   asked once the mark after it is taken. *)
let seconds t0 t1 =
  match around t0 t1 with
  | [] -> t1 -. t0
  | dts -> (t1 -. t0) *. nominal /. (List.fold_left ( +. ) 0.0 dts /. float_of_int (List.length dts))

(* Median reference time of the marks so far. *)
let median_reference () = Helpers.median (List.map (fun (_, _, dt) -> dt) !marks)
