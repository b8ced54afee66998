(* The repository benchmark: host cost (wall time, allocation) and
   modelled cost (ticks, messages) of simulating the x-ability protocol
   and verifying R1-R4, end to end and per layer.

     perfbench/run.sh --workload long_seq|hot_shard|explore_lease|all
                      --seed N --seconds S --trace 0|1

   Everything is driven through the libraries' public functions from one
   domain; see README.md for the workloads, the metrics and their map. *)

module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Service = Xreplication.Service
module Deployment = Xshard.Deployment
module Explorer = Xexplore.Explorer
module Strategy = Xexplore.Strategy
module Checker = Xability.Checker
module Snap = Xobs.Snapshot
module H = Helpers

let now = Unix.gettimeofday
let minor_words () = Gc.minor_words ()
let majors () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------ *)
(* Spans: name / start / end / parent, kept in memory while tracing and
   written out when the benchmark ends. *)

type span = { id : int; name : string; parent : int; t0 : float; t1 : float }

let tracing = ref false

(* A full major collection, then a host-speed mark (calib.ml).  No marks
   while tracing, so the profile holds only the traced call. *)
let mark () = if !tracing then Gc.full_major () else Calib.mark ()

let spans : span list ref = ref []
let span_stack = ref [ 0 ]
let span_ids = ref 0

let add_span ?parent name t0 t1 =
  if !tracing then begin
    incr span_ids;
    let parent = Option.value parent ~default:(List.hd !span_stack) in
    spans := { id = !span_ids; name; parent; t0; t1 } :: !spans;
    !span_ids
  end
  else 0

let with_span name f =
  if not !tracing then f ()
  else begin
    incr span_ids;
    let id = !span_ids and parent = List.hd !span_stack and t0 = now () in
    span_stack := id :: !span_stack;
    let finish () =
      span_stack := List.tl !span_stack;
      spans := { id; name; parent; t0; t1 = now () } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* ------------------------------------------------------------------ *)
(* One measured call into the libraries. *)

type model = {
  work_end : int;  (** ticks, [result.work_end_time] *)
  latencies : int list;  (** ticks submit -> reply *)
  msgs : int;  (** service_messages + coord_msgs *)
  failover : int option;  (** hot_shard: reply gap on shard 0 over the crash *)
}

type sample = {
  wall : float;  (** s, call entry -> verdict, full length *)
  host : float;  (** [wall] in reference-host seconds (calib.ml) *)
  units : int;  (** client requests at full length *)
  short_wall : float;  (** s, the short-length calls *)
  growth : float;  (** per-request cost at full length over at short length *)
  words : float;  (** minor words of the full-length call *)
  majors : int;
  attempted : int;
  failed : int;
  failures : string list;
  fingerprint : string;  (** modelled outcome, compared across repeats *)
  model : model option;
  schedules : int;
  schedule_ms : float list;
  layer : (string * float) list;  (** per-layer host figures (traced) *)
  obs : Snap.t;
  counts : (string * float) list;  (** counts read off the run's result *)
}

(* Hooks around Runner.run / run_sharded: [prepare] captures the
   environment, the workload callback marks when the lanes start and
   end, [aborted] (polled between quiesce slices) marks when simulation
   ends and verification begins. *)
type probe = {
  t_entry : float;
  w_entry : float;
  mutable env : Xsm.Environment.t option;
  mutable setup_t : float * float;
  mutable first_cb : float;
  mutable last_cb : float;
  mutable last_poll : float;
  mutable w_poll : float;
}

let probe () =
  {
    t_entry = now ();
    w_entry = minor_words ();
    env = None;
    setup_t = (nan, nan);
    first_cb = nan;
    last_cb = nan;
    last_poll = nan;
    w_poll = nan;
  }

let prepare p _eng env =
  let t0 = now () in
  p.env <- Some env;
  ignore (add_span "runner.prepare" t0 (now ()))

let setup p env =
  let t0 = now () in
  let srv = Workloads.setup_all env in
  p.setup_t <- (t0, now ());
  srv

let aborted p () =
  p.last_poll <- now ();
  p.w_poll <- minor_words ();
  false

let lane p body =
  if Float.is_nan p.first_cb then p.first_cb <- now ();
  body ();
  p.last_cb <- now ()

(* Close a probed call: spans for its phases, per-layer host figures. *)
let finish_probe p ~units =
  let t_exit = now () and w_exit = minor_words () in
  let poll = if Float.is_nan p.last_poll then p.last_cb else p.last_poll in
  let w_poll = if Float.is_nan p.w_poll then w_exit else p.w_poll in
  let root = add_span "runner.run" p.t_entry t_exit in
  let s0, s1 = p.setup_t in
  ignore (add_span ~parent:root "runner.setup" s0 s1);
  ignore (add_span ~parent:root "workload.deploy" p.t_entry p.first_cb);
  ignore (add_span ~parent:root "workload.simulate" p.t_entry poll);
  ignore (add_span ~parent:root "workload.lanes" p.first_cb p.last_cb);
  ignore (add_span ~parent:root "workload.quiesce" p.last_cb poll);
  ignore (add_span ~parent:root "workload.verify" poll t_exit);
  let per_req w = w /. float_of_int (max 1 units) in
  [
    ("workload.setup_ms", 1000.0 *. (p.first_cb -. p.t_entry));
    ("workload.simulate_s", poll -. p.t_entry);
    ("workload.verify_s", t_exit -. poll);
    ("gc.minor_words_simulate_per_req", per_req (w_poll -. p.w_entry));
    ("gc.minor_words_verify_per_req", per_req (w_exit -. w_poll));
  ]

(* Timed standalone re-run of the R3 check on a captured history, with
   Xobs paused so the counts stay the run's own. *)
let recheck ~expect_ok f =
  let was = Xobs.enabled () in
  Xobs.set_enabled false;
  let t0 = now () in
  let ok = with_span "core.check" f in
  let dt = now () -. t0 in
  Xobs.set_enabled was;
  (dt, if ok = expect_ok then [] else [ "standalone R3 re-check disagrees" ])

let result_fingerprint (r : Runner.result) =
  let t = r.Runner.totals in
  let lat =
    List.fold_left
      (fun h (s : Runner.submission) -> ((h * 31) + s.Runner.latency) land max_int)
      17 r.Runner.submissions
  in
  Printf.sprintf
    "ok=%b end=%d work_end=%d hist=%d fs=%d rounds=%d exec=%d clean=%d \
     take=%d replies=%d props=%d cmsgs=%d coord=%d smsgs=%d subs=%d lat=%d \
     shards=%s"
    (Runner.ok r) r.Runner.end_time r.Runner.work_end_time r.Runner.history_length
    r.Runner.false_suspicions t.Service.rounds_owned t.Service.executions
    t.Service.cleanups t.Service.takeovers t.Service.replies_sent
    t.Service.consensus_proposals t.Service.consensus_messages
    t.Service.coord_msgs t.Service.service_messages
    (List.length r.Runner.submissions)
    lat
    (String.concat ","
       (List.map
          (fun (s, (rep : Checker.report)) ->
            Printf.sprintf "%d:%b" s rep.Checker.ok)
          r.Runner.shard_reports))

let result_counts (r : Runner.result) =
  let t = r.Runner.totals in
  [
    ("history_events", float_of_int r.Runner.history_length);
    ("false_suspicions", float_of_int r.Runner.false_suspicions);
    ("cleanups", float_of_int t.Service.cleanups);
    ("takeovers", float_of_int t.Service.takeovers);
  ]

let model_of ?failover (r : Runner.result) =
  let t = r.Runner.totals in
  {
    work_end = r.Runner.work_end_time;
    latencies = List.map (fun (s : Runner.submission) -> s.Runner.latency) r.Runner.submissions;
    msgs = t.Service.service_messages + t.Service.coord_msgs;
    failover;
  }

(* ------------------------------------------------------------------ *)
(* Workloads.  Each has [inputs] fixed inputs derived from the seed; a
   timed run cycles through them, so the modelled figures (taken from
   the first call on each input) repeat exactly for a seed while the
   host figures are medians over every repeat. *)

type workload = {
  name : string;
  inputs : int;
  params : int -> (string * string) list;  (** seed -> parameter record *)
  warm : int -> unit;  (** input seed -> one miniature run, part of set-up *)
  measure : int -> int -> sample;  (** seed -> input -> sample *)
}

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l

let derive seed k = (((seed land 0xFFFFF) * 7919) + (k * 104729) + 1) land 0x3FFFFFFF
let input_seeds seed inputs = String.concat "," (List.init inputs (fun k -> string_of_int (derive seed k)))

(* One probed Runner call of a request workload. *)
type call = {
  r : Runner.result;
  c_wall : float;
  c_host : unit -> float;  (** [c_wall] in reference-host seconds, once the next mark is taken *)
  c_words : float;
  c_layer : (string * float) list;
  c_obs : Snap.t;
  c_failures : string list;  (** verdict failures, empty when green *)
  c_check : unit -> bool;  (** standalone R3 re-check of the captured history *)
  extra : string;  (** workload-specific modelled outcome *)
  c_failover : int option;
}

let probed p ~units ~submissions ~failures ~check run =
  if Xobs.enabled () then Xobs.reset ();
  let r = run () in
  let t_exit = now () in
  let c_wall = t_exit -. p.t_entry and c_words = minor_words () -. p.w_entry in
  let c_host () = Calib.seconds p.t_entry t_exit in
  let c_obs = if Xobs.enabled () then Xobs.snapshot () else Snap.empty in
  let c_layer = finish_probe p ~units in
  let replied = List.length r.Runner.submissions in
  let c_failures =
    Runner.failures r @ failures r
    @
    if replied = submissions then []
    else [ Printf.sprintf "%d of %d submissions replied" replied submissions ]
  in
  { r; c_wall; c_host; c_words; c_layer; c_obs; c_failures; c_check = check; extra = ""; c_failover = None }

let captured p = match p.env with Some env -> env | None -> failwith "no environment captured"

(* A request workload's sample: the call at full length, its standalone
   re-check when tracing, then four calls at a quarter of the length on
   the same seed, back to back.  The four do the work of one full call in
   about its time, so a burst of host slowness hits both sides of the
   growth ratio alike.  Host-speed marks go before and after the full
   call, and after the quarter calls, where the set-up batch that follows
   begins. *)
let measure_requests ~call ~reqs ~full ~quarter seed k =
  let seed = derive seed k in
  mark ();
  let m0 = majors () in
  let c = call ~seed ~n:full ~quarter:false in
  let majors = majors () - m0 in
  let check_s, check_fail =
    if !tracing then recheck ~expect_ok:c.r.Runner.report.Checker.ok c.c_check
    else (nan, [])
  in
  mark ();
  let qs =
    List.init 4 (fun i ->
        if i > 0 then Gc.full_major ();
        call ~seed ~n:quarter ~quarter:true)
  in
  mark ();
  let fingerprint c = result_fingerprint c.r ^ " " ^ c.extra in
  (* The quarter calls repeat one input, so they must share one outcome. *)
  let q_outcomes = List.sort_uniq compare (List.map fingerprint qs) in
  let full_bad = c.c_failures <> [] || check_fail <> [] in
  let full = reqs full and quarter = reqs quarter in
  {
    wall = c.c_wall;
    host = c.c_host ();
    units = full;
    short_wall = sum (fun q -> q.c_wall) qs;
    growth = c.c_wall /. float_of_int full /. (sum (fun q -> q.c_wall) qs /. float_of_int (4 * quarter));
    words = c.c_words;
    majors;
    attempted = full + (4 * quarter);
    failed =
      (if full_bad then full else 0)
      + (quarter * List.length (List.filter (fun q -> q.c_failures <> []) qs));
    failures =
      c.c_failures @ check_fail
      @ List.concat_map (fun q -> q.c_failures) qs
      @ (if List.length q_outcomes = 1 then [] else [ "quarter-length repeats differ" ]);
    fingerprint = String.concat " | " (fingerprint c :: q_outcomes);
    model = Some (model_of ?failover:c.c_failover c.r);
    schedules = 1;
    schedule_ms = [ 1000.0 *. c.c_wall ];
    layer =
      ("core.check_s", check_s)
      :: ("gc.major_collections", float_of_int majors)
      :: ("explore.events_per_schedule", float_of_int c.r.Runner.history_length)
      :: c.c_layer;
    obs = c.c_obs;
    counts = result_counts c.r;
  }

(* long_seq: the faithful path, one sequential client. *)
let long_n = 1_600
let long_inputs = 3

let long_call ~seed ~n ~quarter:_ =
  let p = probe () in
  let issued = ref [] in
  probed p ~units:n ~submissions:n
    ~failures:(fun _ -> [])
    ~check:(fun () ->
      let env = captured p in
      (Checker.check ~kinds:(Xsm.Environment.kind_of env)
         ~logical_of:Xsm.Request.logical_of_env_iv
         ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order:true
         ~expected:(List.rev_map (Xsm.Environment.checker_expected env) !issued)
         (Xsm.Environment.history env))
        .Checker.ok)
    (fun () ->
      fst
        (Runner.run
           ~spec:{ Runner.default_spec with seed; time_limit = 100_000_000 }
           ~prepare:(prepare p) ~aborted:(aborted p) ~setup:(setup p)
           ~workload:(fun _ c submit ->
             lane p (fun () ->
                 Workloads.sequence Workloads.Mixed ~n c (fun req ->
                     issued := req :: !issued;
                     submit req)))
           ()))

let long_seq =
  {
    name = "long_seq";
    inputs = long_inputs;
    params =
      (fun seed ->
        [
          ("runner", "Runner.run, Workloads.sequence Mixed");
          ("spec", "Runner.default_spec with time_limit=100000000 (clients=1, inflight=1, quiesce_grace=8000)");
          ("service", "Service.default_config: register 25, no batching, no lease, structural codec, no faults, consensus_service_time=0");
          ("net_latency", "uniform(20,60)");
          ("requests_full", string_of_int long_n);
          ("requests_quarter", string_of_int (long_n / 4));
          ("input_seeds", input_seeds seed long_inputs);
        ]);
    warm =
      (fun seed ->
        let c = long_call ~seed ~n:(long_n / 4) ~quarter:true in
        if c.c_failures <> [] then failwith "long_seq warm-up run failed");
    measure = measure_requests ~call:long_call ~reqs:Fun.id ~full:long_n ~quarter:(long_n / 4);
  }

(* hot_shard: 4 shards x 2 sessions x 4 lanes, batching, seqlog, lease,
   flat codec; shard 0's first replica crashes mid-run. *)
let hot_shards = 4
let hot_sessions = 2
let hot_lanes = 4
let hot_per_lane = 128
let hot_cross_every = 4
let hot_crash_at = 6_000
let hot_inputs = 6
let hot_reqs n = hot_shards * hot_sessions * hot_lanes * n

let hot_spec ~seed ~crash_at =
  {
    Runner.default_spec with
    seed;
    time_limit = 100_000_000;
    quiesce_grace = 20_000;
    clients = hot_sessions;
    inflight = hot_lanes;
    crashes = [ (crash_at, 0) ];
    service_config =
      {
        Service.default_config with
        shards = hot_shards;
        n_clients = hot_sessions;
        substrate = `Seqlog (Xnet.Latency.Uniform (10, 40));
        lease = Some Xreplication.Lease.default_config;
        codec = Service.Flat;
        batching =
          Some { Xreplication.Batcher.default_config with size = 16; depth = 4 };
      };
  }

(* The lane body of [Workloads.sharded_mix ~undoable:false], issuing the
   same requests in the same order (selftest.ml checks the equivalence),
   with each reply's virtual time passed to [on_reply]. *)
let hot_lane ~n ~on_reply d sess =
  let part = Deployment.partition d in
  let nshards = Xshard.Partition.shards part in
  let home = Deployment.home sess in
  let cl = Deployment.session_client sess in
  let key ~shard ~salt = Xshard.Partition.key_for part ~shard ~salt in
  for i = 1 to n do
    (if hot_cross_every > 0 && i mod hot_cross_every = 0 then begin
       let neighbour = (home + 1) mod nshards in
       let parts =
         [
           Workloads.kv_put cl
             ~key:(key ~shard:home ~salt:(100 + i))
             ~value:(Xability.Value.int i);
           Workloads.kv_put cl
             ~key:(key ~shard:neighbour ~salt:(100 + i))
             ~value:(Xability.Value.int i);
         ]
       in
       ignore (Deployment.submit_cross d sess parts)
     end
     else
       ignore
         (Deployment.submit d sess
            (Workloads.kv_put cl ~key:(key ~shard:home ~salt:i)
               ~value:(Xability.Value.int i))));
    on_reply (Xsim.Engine.now (Deployment.engine d))
  done

(* The short run crashes the replica at a quarter of the time too. *)
let hot_call ~seed ~n ~quarter =
  let crash_at = if quarter then hot_crash_at / 4 else hot_crash_at in
  let p = probe () in
  let dep = ref None in
  (* Reply timelines of the lanes homed on shard 0, one per lane. *)
  let timelines = ref [] in
  let run () =
    let r, _, d =
      Runner.run_sharded ~spec:(hot_spec ~seed ~crash_at) ~prepare:(prepare p)
        ~aborted:(aborted p) ~setup:(setup p)
        ~workload:(fun _ d sess ->
          let times = ref [] in
          if Deployment.home sess = 0 then timelines := times :: !timelines;
          lane p (fun () -> hot_lane ~n ~on_reply:(fun t -> times := t :: !times) d sess))
        ()
    in
    dep := Some d;
    r
  in
  let d () = Option.get !dep in
  let failover () = H.failover_ticks ~crash:crash_at (List.map ( ! ) !timelines) in
  let c =
    (* A cross-shard request is one submission per part. *)
    probed p ~units:(hot_reqs n)
      ~submissions:(hot_reqs n + hot_reqs (n / hot_cross_every))
      ~failures:(fun r ->
        (if r.Runner.shard_reports = [] then [ "no per-shard verdicts" ] else [])
        @ List.filter_map
            (fun (s, (rep : Checker.report)) ->
              if rep.Checker.ok then None else Some (Printf.sprintf "shard %d not x-able" s))
            r.Runner.shard_reports
        @ if failover () = None then [ "a shard 0 lane never replied after the crash" ] else [])
      ~check:(fun () ->
        let env = captured p in
        (Checker.compose ~kinds:(Xsm.Environment.kind_of env)
           ~logical_of:Xsm.Request.logical_of_env_iv
           ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order:false
           ~shard_of:(Deployment.shard_of_expected (d ()))
           ~expected:
             (List.map (Xsm.Environment.checker_expected env) (Deployment.issued (d ())))
           (Xsm.Environment.history env))
          .Checker.combined.Checker.ok)
      run
  in
  let t = Deployment.totals (d ()) in
  let failover = failover () in
  {
    c with
    c_failover = failover;
    extra =
      Printf.sprintf "failover=%s routed=%d cross=%d"
        (match failover with Some f -> string_of_int f | None -> "none")
        t.Deployment.routed_submits t.Deployment.cross_requests;
  }

let hot_shard =
  {
    name = "hot_shard";
    inputs = hot_inputs;
    params =
      (fun seed ->
        [
          ("runner", "Runner.run_sharded; lane body = Workloads.sharded_mix ~undoable:false");
          ( "shape",
            Printf.sprintf "shards=%d sessions=%d lanes=%d (closed loop, %d outstanding)"
              hot_shards hot_sessions hot_lanes
              (hot_shards * hot_sessions * hot_lanes) );
          ("cross_every", string_of_int hot_cross_every);
          ("requests_per_lane_full", string_of_int hot_per_lane);
          ("requests_per_lane_quarter", string_of_int (hot_per_lane / 4));
          ("requests_full", string_of_int (hot_reqs hot_per_lane));
          ( "crash",
            Printf.sprintf "flat replica 0 (shard 0) at tick %d (full), %d (quarter)"
              hot_crash_at (hot_crash_at / 4) );
          ("spec", "time_limit=100000000 quiesce_grace=20000");
          ("service", "substrate=seqlog uniform(10,40), lease=Lease.default_config (duration 600, renew 200), codec=Flat, batching size=16 depth=4 tick=100, consensus_service_time=0, channel=assumed reliable, no faults");
          ("net_latency", "uniform(20,60)");
          ("input_seeds", input_seeds seed hot_inputs);
        ]);
    warm =
      (fun seed ->
        let c = hot_call ~seed ~n:(hot_per_lane / 4) ~quarter:true in
        if c.c_failures <> [] then
          failwith ("hot_shard warm-up run failed: " ^ String.concat "; " c.c_failures));
    measure =
      measure_requests ~call:hot_call ~reqs:hot_reqs ~full:hot_per_lane
        ~quarter:(hot_per_lane / 4);
  }

(* explore_lease: the default lease-edge sweep over the booking scenario,
   one domain.  Each schedule is timed by wrapping the scenario's
   [workload] field: a schedule begins when its first lane starts (a new
   services record marks a new run) and ends when the next one begins.

   The growth ratio compares the full sweep with short sweeps doing the
   very same work.  The full sweep runs [explore_substrates] substrates,
   and within each its [explore_seeds] engine seeds [seed..seed+6], one
   group of schedules per (substrate, seed) (lib/explore/explorer.ml,
   Lease_edge).  So the one-seed sweep on scenario seed [seed+i] runs
   group (b, i) of every substrate b, in the same order.  The first
   [explore_before] short sweeps run before the full sweep and the rest
   after it.  Each group's wall time in the full sweep is divided by its
   wall time in its short sweep, and the median over the groups is the
   ratio: a burst of host slowness spoils a few groups, not the median. *)
let explore_seeds = 7
let explore_substrates = 3
let explore_strategy = Strategy.lease_edge ~seeds:explore_seeds ()
let explore_before = 4
let explore_short = Strategy.lease_edge ~seeds:1 ()

let explore_scenario ~seed ~stamps ~reqs =
  let base = Explorer.booking () in
  let last = ref None in
  {
    base with
    Explorer.spec = { base.Explorer.spec with Runner.seed };
    workload =
      (fun svcs client submit ->
        (match !last with
        | Some s when s == svcs -> ()
        | _ ->
            last := Some svcs;
            stamps := (now (), !reqs) :: !stamps);
        base.Explorer.workload svcs client (fun req ->
            incr reqs;
            submit req));
  }

type sweep = {
  v : Explorer.verdict;
  t0 : float;
  t1 : float;
  s_words : float;
  starts : float list;  (** each schedule's start, in sweep order *)
  s_reqs : int;
  durations : float array;  (** each schedule's wall time, in sweep order *)
  sched_reqs : int array;  (** each schedule's requests, in sweep order *)
}

let explore_call ~seed strategy =
  let stamps = ref [] and reqs = ref 0 in
  let scenario = explore_scenario ~seed ~stamps ~reqs in
  let t0 = now () and w0 = minor_words () in
  let v =
    with_span "explore.explore" (fun () ->
        Explorer.explore ~jobs:1 scenario strategy)
  in
  let t1 = now () in
  let stamps = List.rev !stamps in
  let nexts = List.tl stamps @ [ (t1, !reqs) ] in
  {
    v;
    t0;
    t1;
    s_words = minor_words () -. w0;
    starts = List.map fst stamps;
    s_reqs = !reqs;
    durations = Array.of_list (List.map2 (fun (a, _) (b, _) -> b -. a) stamps nexts);
    sched_reqs = Array.of_list (List.map2 (fun (_, a) (_, b) -> b - a) stamps nexts);
  }

let sweep_failures sw =
  let n = sw.v.Explorer.explored in
  List.map
    (fun (o : Explorer.outcome) -> String.concat "; " o.Explorer.violations)
    sw.v.Explorer.violating
  @
  if List.length sw.starts = n then []
  else [ Printf.sprintf "%d schedule starts seen for %d schedules" (List.length sw.starts) n ]

let sweep_fingerprint sw =
  Printf.sprintf "explored=%d violating=%d choice_points=%d events=%d reqs=%d"
    sw.v.Explorer.explored
    (List.length sw.v.Explorer.violating)
    sw.v.Explorer.choice_points sw.v.Explorer.events_total sw.s_reqs

(* Group (b, i) of the full sweep against group b of short sweep i: the
   ratios of their wall times, and whether their per-schedule request
   counts agree. *)
let group_ratios full shorts =
  let g = Array.length full.durations / (explore_seeds * explore_substrates) in
  let slice a off = Array.sub a off g in
  let total a = Array.fold_left ( +. ) 0.0 a in
  List.concat
    (List.mapi
       (fun i sh ->
         List.init explore_substrates (fun b ->
             let f = (b * g * explore_seeds) + (i * g) and q = b * g in
             ( total (slice full.durations f) /. total (slice sh.durations q),
               slice full.sched_reqs f = slice sh.sched_reqs q )))
       shorts)

(* The short sweeps must add up to the full sweep's work. *)
let split_ok full shorts =
  ( isum (fun s -> s.v.Explorer.explored) shorts,
    isum (fun s -> s.v.Explorer.events_total) shorts,
    isum (fun s -> s.s_reqs) shorts )
  = (full.v.Explorer.explored, full.v.Explorer.events_total, full.s_reqs)
  && full.v.Explorer.explored mod (explore_seeds * explore_substrates) = 0
  && List.for_all (fun s -> List.length s.starts = s.v.Explorer.explored) (full :: shorts)

let explore_lease =
  {
    name = "explore_lease";
    inputs = 1;
    params =
      (fun seed ->
        [
          ("call", "Explorer.explore ~jobs:1 (Explorer.booking ()) (Strategy.lease_edge ~seeds:7 ()), the default sweep");
          ("strategy", Strategy.describe explore_strategy);
          ("scenario", "booking: 3 reservations per lane; lease_edge loads 2 clients x 4 lanes");
          ("spec", "Explorer.booking spec: time_limit=400000 quiesce_grace=6000");
          ("engine_seeds", Printf.sprintf "%d..%d" (derive seed 0) (derive seed 0 + explore_seeds - 1));
          ( "short_sweeps",
            Printf.sprintf
              "Strategy.lease_edge ~seeds:1 () on scenario seeds %d..%d, one each, %d before the full sweep and %d after: %s"
              (derive seed 0) (derive seed 0 + explore_seeds - 1) explore_before
              (explore_seeds - explore_before) (Strategy.describe explore_short) );
        ]);
    warm =
      (fun seed ->
        let sw = explore_call ~seed (Strategy.random_walk ~trials:100 ()) in
        if sw.v.Explorer.violating <> [] then failwith "explore warm-up found a violation");
    measure =
      (fun seed _k ->
        let seed = derive seed 0 in
        (* A host-speed mark before every sweep and after the last. *)
        let short first count =
          List.init count (fun i ->
              mark ();
              explore_call ~seed:(seed + first + i) explore_short)
        in
        let before = short 0 explore_before in
        mark ();
        let m0 = majors () in
        let sw = explore_call ~seed explore_strategy in
        let majors = majors () - m0 in
        let shorts = before @ short explore_before (explore_seeds - explore_before) in
        mark ();
        let n = sw.v.Explorer.explored in
        List.iteri
          (fun j a -> ignore (add_span "explore.schedule" a (a +. sw.durations.(j))))
          sw.starts;
        let groups = if split_ok sw shorts then group_ratios sw shorts else [] in
        let violating sw = List.length sw.v.Explorer.violating in
        {
          wall = sw.t1 -. sw.t0;
          (* The one-seed sweeps together run the full sweep's schedules,
             and each is short enough for the marks around it to catch
             the host's speed, which the full sweep is not. *)
          host = sum (fun s -> Calib.seconds s.t0 s.t1) shorts;
          units = sw.s_reqs;
          short_wall = sum (fun s -> s.t1 -. s.t0) shorts;
          growth = H.median (List.map fst groups);
          words = sw.s_words;
          majors;
          attempted = n + isum (fun s -> s.v.Explorer.explored) shorts;
          failed = violating sw + isum violating shorts;
          failures =
            sweep_failures sw
            @ List.concat_map sweep_failures shorts
            @ (if split_ok sw shorts then [] else [ "the short sweeps do not add up to the full sweep" ])
            @
            if List.for_all snd groups then []
            else [ "the short sweeps' schedules do not line up with the full sweep's groups" ];
          fingerprint = String.concat " | " (List.map sweep_fingerprint (sw :: shorts));
          model = None;
          schedules = n;
          schedule_ms = Array.to_list (Array.map (( *. ) 1000.0) sw.durations);
          layer =
            [
              ("gc.major_collections", float_of_int majors);
              ("explore.events_per_schedule",
               float_of_int sw.v.Explorer.events_total /. float_of_int (max 1 n));
            ];
          obs = sw.v.Explorer.v_obs;
          counts =
            [
              ("history_events", float_of_int sw.v.Explorer.events_total);
              ("schedules", float_of_int n);
            ];
        });
  }

let workloads = [ long_seq; hot_shard; explore_lease ]

(* ------------------------------------------------------------------ *)
(* Metrics. *)

type metric = { m_name : string; unit : string; value : float option }

let m m_name unit value = { m_name; unit; value = Some value }
let na m_name unit = { m_name; unit; value = None }

(* The end-to-end metrics gated in BENCHMARK.json: the host cost every
   workload has.  The others are printed and recorded, not gated. *)
let gated =
  [ "host_req_per_s"; "host_cost_growth"; "minor_words_per_req"; "peak_heap_mb"; "setup_s" ]

(* Group samples by input, in input order, first repeat first. *)
let by_input inputs samples =
  List.init inputs (fun k ->
      List.filter_map (fun (k', s) -> if k = k' then Some s else None) samples)
  |> List.filter (fun l -> l <> [])

let first_pass groups = List.map List.hd groups

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end ~setup_s ~wall_setup_s ~peak groups =
  let firsts = first_pass groups in
  let all = List.concat groups in
  let med f = List.map (fun g -> H.median (List.map f g)) groups in
  let host = List.fold_left ( +. ) 0.0 (med (fun s -> s.host)) in
  let wall = List.fold_left ( +. ) 0.0 (med (fun s -> s.wall)) in
  let units = float_of_int (isum (fun s -> s.units) firsts) in
  let schedules = isum (fun s -> s.schedules) firsts in
  let words = sum (fun s -> s.words) firsts in
  let models = List.filter_map (fun s -> s.model) firsts in
  let modelled =
    match models with
    | [] ->
        [
          na "model_req_per_ktick" "req/ktick";
          na "model_lat_p50_ticks" "ticks";
          na "model_lat_p99_ticks" "ticks";
          na "msgs_per_req" "msgs";
        ]
    | _ ->
        let lat = List.concat_map (fun md -> List.map float_of_int md.latencies) models in
        let work_end = isum (fun md -> md.work_end) models in
        [
          m "model_req_per_ktick" "req/ktick" (1000.0 *. units /. float_of_int (max 1 work_end));
          m "model_lat_p50_ticks" "ticks" (H.percentile 50.0 lat);
          (match H.tail_percentile lat with
          | Some (p, _, _) when p >= 99.0 -> m "model_lat_p99_ticks" "ticks" (H.percentile 99.0 lat)
          | _ -> na "model_lat_p99_ticks" "ticks");
          m "model_lat_samples" "count" (float_of_int (List.length lat));
          m "msgs_per_req" "msgs" (float_of_int (isum (fun md -> md.msgs) models) /. units);
        ]
  in
  let failover =
    match List.filter_map (fun md -> md.failover) models with
    | [] -> [ na "failover_ticks" "ticks" ]
    | fs -> [ m "failover_ticks" "ticks" (H.median (List.map float_of_int fs)) ]
  in
  let per_schedule =
    if models = [] then
      [
        m "schedules_per_s" "1/s" (float_of_int schedules /. host);
        m "minor_words_per_schedule" "words" (words /. float_of_int (max 1 schedules));
      ]
    else [ na "schedules_per_s" "1/s"; na "minor_words_per_schedule" "words" ]
  in
  [
    m "host_req_per_s" "1/s" (units /. host);
    m "host_cost_growth" "ratio" (H.median (List.map (fun s -> s.growth) all));
    m "minor_words_per_req" "words" (words /. units);
    m "peak_heap_mb" "MB" peak;
    m "setup_s" "s" setup_s;
    m "wall_req_per_s" "1/s" (units /. wall);
    m "wall_setup_s" "s" wall_setup_s;
    m "host_ref_ms" "ms" (1000.0 *. Calib.median_reference ());
  ]
  @ per_schedule @ modelled @ failover
  @ [
      m "fail_frac" "ratio"
        (float_of_int (isum (fun s -> s.failed) all)
        /. float_of_int (max 1 (isum (fun s -> s.attempted) all)));
      m "timed_calls" "count" (float_of_int (List.length all));
    ]

(* Per-layer metrics of a traced pass.  [None] where the layer metric
   does not apply to the workload. *)
let counter obs name =
  match Snap.find obs name with
  | Some (Snap.Counter n) -> float_of_int n
  | _ -> 0.0

let hist_mean obs name =
  match Snap.find obs name with
  | Some (Snap.Histogram { n; sum; _ }) ->
      if n = 0 then 0.0 else float_of_int sum /. float_of_int n
  | _ -> 0.0

let span_p50 obs name =
  match Snap.find obs name with
  | Some (Snap.Span { n; _ } as s) when n > 0 ->
      (Xworkload.Stats.percentile_sorted 0.5 (Snap.representatives s), n)
  | _ -> (0.0, 0)

let gauge_max obs name =
  match Snap.find obs name with
  | Some (Snap.Gauge { max; _ }) -> float_of_int max
  | _ -> 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let hot_modules =
  [
    ("sim", "heap"); ("sim", "engine"); ("replication", "replica");
    ("replication", "coord"); ("core", "checker"); ("core", "action");
    ("core", "reduction"); ("consensus", "seqlog"); ("consensus", "paxos");
    ("net", "reliable"); ("sm", "environment"); ("workload", "runner");
  ]

let per_layer ~overhead groups =
  let firsts = first_pass groups in
  let all = List.concat groups in
  let obs = List.fold_left (fun acc s -> Snap.merge acc s.obs) Snap.empty firsts in
  let requests = List.exists (fun s -> s.model <> None) firsts in
  let reqs = float_of_int (isum (fun s -> s.units) firsts) in
  let ops = if requests then reqs else float_of_int (isum (fun s -> s.schedules) firsts) in
  let layer name =
    match
      List.filter_map
        (fun s ->
          match List.assoc_opt name s.layer with
          | Some v when Float.is_finite v -> Some v
          | _ -> None)
        all
    with
    | [] -> None
    | vs -> Some (H.median vs)
  in
  let count name = sum (fun s -> Option.value ~default:0.0 (List.assoc_opt name s.counts)) firsts in
  let opt name unit = function Some v -> m name unit v | None -> na name unit in
  let sched = List.concat_map (fun s -> s.schedule_ms) all in
  let hits = counter obs "reduction.analyzer_hits" in
  let groups_judged = hits +. counter obs "reduction.analyzer_misses" in
  let lease_hits = counter obs "coord.lease_hits" in
  let propose_p50, propose_n = span_p50 obs "consensus.propose" in
  let layers = H.layers @ [ "other" ] in
  [
    opt "workload.setup_ms" "ms" (layer "workload.setup_ms");
    opt "workload.simulate_s" "s" (layer "workload.simulate_s");
    opt "workload.verify_s" "s" (layer "workload.verify_s");
    opt "core.check_s" "s" (layer "core.check_s");
    (if sched = [] then na "explore.schedule_ms_p50" "ms"
     else m "explore.schedule_ms_p50" "ms" (H.percentile 50.0 sched));
    (match H.tail_percentile sched with
    | Some (p, _, _) when p >= 95.0 -> m "explore.schedule_ms_p95" "ms" (H.percentile 95.0 sched)
    | _ -> na "explore.schedule_ms_p95" "ms");
    m "explore.schedule_samples" "count" (float_of_int (List.length sched));
    opt "gc.minor_words_simulate_per_req" "words" (layer "gc.minor_words_simulate_per_req");
    opt "gc.minor_words_verify_per_req" "words" (layer "gc.minor_words_verify_per_req");
    opt "gc.major_collections" "count" (layer "gc.major_collections");
  ]
  @ List.map (fun l -> m (l ^ ".self_pct") "%" (Sampler.self_pct l)) layers
  @ List.map
      (fun (l, md) -> m (l ^ "." ^ md ^ ".self_pct") "%" (Sampler.self_pct ~m:md l))
      hot_modules
  @ [
      m "profile.samples" "count" (float_of_int !Sampler.samples);
      m "sim.events_per_op" "events" (ratio (counter obs "engine.events_dispatched") ops);
      m "sim.heap_depth_max" "count" (gauge_max obs "engine.heap_depth");
      m "net.retransmits" "count" (counter obs "net.retransmits");
      m "net.acks" "count" (counter obs "net.acks");
      m "net.piggyback_acks" "count" (counter obs "net.piggyback_acks");
      m "net.dedup_drops" "count" (counter obs "net.dedup_drops");
      m "consensus.proposals_per_req" "ratio" (ratio (counter obs "consensus.proposals") reqs);
      m "consensus.rounds_per_proposal" "ratio"
        (ratio (counter obs "consensus.rounds") (counter obs "consensus.proposals"));
      m "consensus.view_changes" "count" (counter obs "consensus.view_changes");
      m "consensus.propose_ticks_p50" "ticks" propose_p50;
      m "consensus.propose_samples" "count" (float_of_int propose_n);
      m "replication.lease_hit_ratio" "ratio"
        (ratio lease_hits (lease_hits +. counter obs "coord.lease_misses"));
      m "replication.batch_size_mean" "requests" (hist_mean obs "repl.batch_size");
      m "replication.takeovers" "count" (counter obs "replica.takeovers");
      m "replication.cleanups" "count" (counter obs "replica.cleanups");
      m "replication.undos" "count" (counter obs "replica.undos");
      m "replication.rounds_per_req" "ratio" (ratio (counter obs "replica.rounds_owned") reqs);
      (if requests then m "detect.false_suspicions" "count" (count "false_suspicions")
       else na "detect.false_suspicions" "count");
      m "sm.history_events_per_req" "events" (ratio (count "history_events") reqs);
      m "core.groups" "count" groups_judged;
      m "core.analyzer_hit_ratio" "ratio" (ratio hits groups_judged);
      m "core.reduction_visited" "count" (counter obs "reduction.visited");
      m "shard.router_lookups_per_req" "ratio" (ratio (counter obs "shard.router_lookups") reqs);
      m "shard.cross_fanout_mean" "parts" (hist_mean obs "shard.cross_fanout");
      m "explore.online_aborts" "count" (counter obs "explore.online_aborts");
      opt "explore.events_per_schedule" "events" (layer "explore.events_per_schedule");
      m "trace.overhead_ratio" "ratio" overhead;
    ]

(* Xobs counters that count what the untraced result already reports:
   tracing must not perturb the simulation, so they must agree. *)
let xobs_crosscheck s =
  let pairs =
    [
      ("replica.cleanups", "cleanups");
      ("replica.takeovers", "takeovers");
      ("explore.schedules", "schedules");
    ]
  in
  List.filter_map
    (fun (c, k) ->
      match List.assoc_opt k s.counts with
      | Some v when v <> counter s.obs c ->
          Some (Printf.sprintf "Xobs %s = %.0f but the result reports %.0f" c (counter s.obs c) v)
      | _ -> None)
    pairs

(* ------------------------------------------------------------------ *)
(* Running a workload. *)

(* Set-up: build the parameter record and run one miniature of the
   workload, cycling over [setup_inputs] inputs derived from the seed.
   It is repeated in batches: one of at least [setup_min_reps] repeats
   and [setup_first_s] seconds before the first timed call, and one after
   every timed call lasting a tenth of that call.  So the repeats sample
   the whole run, and the median repeat, which is reported, stays put
   unless the host is slow for most of the run. *)
let setup_min_reps = 5
let setup_first_s = 1.0
let setup_share = 0.1
let setup_inputs = 3

(* One batch of set-up repeats lasting at least [secs], at least [reps]
   of them; their (start, end) times are added to [times]. *)
let set_up w ~seed ~times ~reps secs =
  (* Collect the last call's garbage first, so that neither the set-up
     times nor the heap peak depend on it. *)
  Gc.full_major ();
  let t_start = now () in
  let rec go i =
    if i < reps || now () -. t_start < secs then begin
      let t0 = now () in
      ignore (w.params seed);
      w.warm (derive seed (99 + (List.length !times mod setup_inputs)));
      times := (t0, now ()) :: !times;
      go (i + 1)
    end
  in
  go 0

(* One timed call on input [k]; a traced call runs with Xobs on, the
   sampler running and spans recorded. *)
let measure w ~seed ~trace k =
  if trace then begin
    tracing := true;
    Xobs.set_enabled true;
    Sampler.start ~interval:0.002
  end;
  Fun.protect
    ~finally:(fun () ->
      if trace then begin
        Sampler.stop ();
        Xobs.set_enabled false;
        tracing := false
      end)
    (fun () -> with_span (w.name ^ ".input" ^ string_of_int k) (fun () -> w.measure seed k))

let results_dir = Filename.concat "perfbench" "results"

let write_file path text =
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  output_string oc text;
  close_out oc

let metric_json ms =
  H.json_obj
    (List.filter_map
       (fun x ->
         Option.map
           (fun v -> (x.m_name, H.json_obj [ ("value", H.json_float v); ("unit", H.json_string x.unit) ]))
           x.value)
       ms)

let print_metrics title ms =
  Printf.printf "== %s\n" title;
  List.iter
    (fun x ->
      match x.value with
      | Some v -> Printf.printf "  %-36s %16.6g %s\n" x.m_name v x.unit
      | None -> Printf.printf "  %-36s %16s %s\n" x.m_name "n/a" x.unit)
    ms

type outcome = { o_correct : bool; o_attempted : int; o_failed : int; o_metrics : metric list }

let run_workload w ~seed ~seconds ~trace ~commit =
  Hashtbl.reset Sampler.counts;
  Sampler.samples := 0;
  spans := [];
  Calib.reset ();
  let t_start = now () in
  let setup_times = ref [] in
  mark ();
  set_up w ~seed ~times:setup_times ~reps:setup_min_reps setup_first_s;
  let untraced = ref [] and traced = ref [] and problems = ref [] in
  let elapsed () = now () -. t_start in
  (* The heap peak once every input has run once.  Later repeats only
     let the heap creep, and how many fit in the run depends on the
     host's speed. *)
  let peak = ref nan in
  (* Cycle through the inputs until every input ran once and the time is
     up.  A traced run follows each call with the traced call on the same
     input, which must reproduce its modelled outcome. *)
  let rec loop i =
    let k = i mod w.inputs in
    let t_call = now () in
    let u = measure w ~seed ~trace:false k in
    untraced := (k, u) :: !untraced;
    if i + 1 = w.inputs then peak := peak_heap_mb ();
    set_up w ~seed ~times:setup_times ~reps:1 (setup_share *. (now () -. t_call));
    if trace then begin
      let t = measure w ~seed ~trace:true k in
      if u.fingerprint <> t.fingerprint then
        problems :=
          Printf.sprintf "input %d: traced run differs from untraced: %s <> %s" k
            t.fingerprint u.fingerprint
          :: !problems;
      problems := xobs_crosscheck t @ !problems;
      traced := (k, t) :: !traced
    end;
    if i + 1 < w.inputs || elapsed () < seconds then loop (i + 1)
  in
  loop 0;
  (* The mark after the last set-up batch. *)
  mark ();
  untraced := List.rev !untraced;
  traced := List.rev !traced;
  let groups = by_input w.inputs !untraced in
  (* Every repeat of an input must reproduce its modelled outcome. *)
  List.iteri
    (fun k g ->
      let f = (List.hd g).fingerprint in
      if List.exists (fun s -> s.fingerprint <> f) g then
        problems := Printf.sprintf "input %d: repeats differ" k :: !problems)
    groups;
  let all = !untraced @ !traced in
  let failures = List.concat_map (fun (_, s) -> s.failures) all @ !problems in
  let attempted = isum (fun (_, s) -> s.attempted) all in
  let failed = isum (fun (_, s) -> s.failed) all in
  let e2e =
    end_to_end
      ~setup_s:(H.median (List.map (fun (t0, t1) -> Calib.seconds t0 t1) !setup_times))
      ~wall_setup_s:(H.median (List.map (fun (t0, t1) -> t1 -. t0) !setup_times))
      ~peak:!peak groups
  in
  let layer =
    if trace then
      let tgroups = by_input w.inputs !traced in
      let med_wall g = List.fold_left ( +. ) 0.0 (List.map (fun g -> H.median (List.map (fun s -> s.wall) g)) g) in
      per_layer ~overhead:(med_wall tgroups /. med_wall groups) tgroups
    else []
  in
  let correct = failures = [] && failed = 0 in
  print_metrics (Printf.sprintf "%s seed=%d end-to-end (tracing off)" w.name seed) e2e;
  if trace then print_metrics (Printf.sprintf "%s seed=%d per layer (traced run)" w.name seed) layer;
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) failures;
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name seed (if trace then 1 else 0) in
  let record =
    H.json_obj
      [
        ("workload", H.json_string w.name);
        ("seed", string_of_int seed);
        ("seconds", H.json_float seconds);
        ("trace", if trace then "1" else "0");
        ("commit", H.json_string commit);
        ("jobs", "1");
        ( "command",
          H.json_string
            (Printf.sprintf "bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d"
               w.name seed seconds (if trace then 1 else 0)) );
        ("params", H.json_obj (List.map (fun (k, v) -> (k, H.json_string v)) (w.params seed)));
        ("correct", string_of_bool correct);
        ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ("failures", H.json_list (List.map H.json_string failures));
        ( "timed_calls",
          H.json_list
            (List.map
               (fun (k, s) ->
                 H.json_obj
                   [
                     ("input", string_of_int k);
                     ("wall_s", H.json_float s.wall);
                     ("host_s", H.json_float s.host);
                     ("short_wall_s", H.json_float s.short_wall);
                     ("growth", H.json_float s.growth);
                     ("units", string_of_int s.units);
                   ])
               !untraced) );
        ("end_to_end", metric_json e2e);
        ("not_applicable", H.json_list (List.filter_map (fun x -> if x.value = None then Some (H.json_string x.m_name) else None) (e2e @ layer)));
        ("per_layer", metric_json layer);
      ]
  in
  write_file (Filename.concat results_dir (tag ^ ".json")) (record ^ "\n");
  if trace then begin
    write_file
      (Filename.concat results_dir (tag ^ ".spans.jsonl"))
      (String.concat ""
         (List.rev_map
            (fun sp ->
              H.json_obj
                [
                  ("id", string_of_int sp.id);
                  ("name", H.json_string sp.name);
                  ("parent", string_of_int sp.parent);
                  ("start_s", H.json_float (sp.t0 -. t_start));
                  ("end_s", H.json_float (sp.t1 -. t_start));
                ]
              ^ "\n")
            !spans));
    write_file
      (Filename.concat results_dir (tag ^ ".profile.json"))
      (H.json_obj
         [
           ("samples", string_of_int !Sampler.samples);
           ( "frames",
             H.json_obj
               (Hashtbl.fold
                  (fun (l, md) n acc -> ((if md = "" then l else l ^ "." ^ md), string_of_int n) :: acc)
                  Sampler.counts []
               |> List.sort compare) );
         ]
      ^ "\n")
  end;
  let metrics =
    if trace then layer
    else List.filter (fun x -> List.mem x.m_name gated) e2e
  in
  { o_correct = correct; o_attempted = attempted; o_failed = failed; o_metrics = metrics }

