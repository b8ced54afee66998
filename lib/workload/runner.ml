open Xability

type spec = {
  seed : int;
  env_config : Xsm.Environment.config;
  service_config : Xreplication.Service.config;
  crashes : (int * int) list;
  client_crash_at : int option;
  noise : (float * int * int) option;
  time_limit : int;
  quiesce_grace : int;
  clients : int;  (* closed-loop client processes *)
  inflight : int;  (* concurrent lanes (outstanding requests) per client *)
}

let default_spec =
  {
    seed = 42;
    env_config = Xsm.Environment.default_config;
    service_config = Xreplication.Service.default_config;
    crashes = [];
    client_crash_at = None;
    noise = None;
    time_limit = 1_000_000;
    quiesce_grace = 8_000;
    clients = 1;
    inflight = 1;
  }

type submission = { req : Xsm.Request.t; reply : Value.t; latency : int }

type result = {
  completed : bool;
  end_time : int;
  work_end_time : int;
  submissions : submission list;
  report : Checker.report;
  r4_ok : bool;
  r4_violations : string list;
  reply_mismatches : string list;
  env_violations : string list;
  duplicate_effects : int;
  engine_errors : (int * string * string) list;
  totals : Xreplication.Service.totals;
  history_length : int;
  false_suspicions : int;
  rounds_per_request : float;
  shard_reports : (int * Checker.report) list;
      (* per-shard projection verdicts of a sharded run ([] otherwise);
         [report] is then their conjunction (Checker.compose) *)
}

let ok r =
  r.completed && r.report.Checker.ok && r.r4_ok
  && r.reply_mismatches = []
  && r.env_violations = []
  && r.engine_errors = []
  && r.duplicate_effects = 0

let failures r =
  (if r.completed then [] else [ "workload did not complete" ])
  @ (if r.report.Checker.ok then []
     else List.map (fun v -> "R3: " ^ v) r.report.Checker.violations)
  @ List.map (fun v -> "R4: " ^ v) r.r4_violations
  @ List.map (fun v -> "reply: " ^ v) r.reply_mismatches
  @ List.map (fun v -> "env: " ^ v) r.env_violations
  @ List.map
      (fun (t, f, e) -> Printf.sprintf "fiber error @%d in %s: %s" t f e)
      r.engine_errors
  @
  if r.duplicate_effects = 0 then []
  else [ Printf.sprintf "duplicate effects: %d" r.duplicate_effects ]

(* What a single-group and a sharded run differ in.  Everything else —
   driving the protocol, injecting faults, quiescing, judging R1–R4 on
   the environment history and assembling the result — is [drive]. *)
type deployment = {
  lanes : (Xsim.Proc.t * string * (unit -> unit)) list;
      (* workload lanes, in spawn order *)
  kill_replica : int -> unit;
  kill_client : unit -> unit;
  groups : Xreplication.Service.t list;  (* oracles and heartbeats to read *)
  totals : unit -> Xreplication.Service.totals;
  issued : unit -> Xsm.Request.t list;  (* the R3 expectation, in order *)
  submissions : unit -> submission list;
  crashed_last : unit -> Xsm.Request.t option;
      (* the crashed client's last issued request *)
  judge :
    History.t ->
    Checker.expected list ->
    Checker.report * (int * Checker.report) list;
      (* R3 verdict and, for a sharded run, the per-shard verdicts *)
}

(* A checker group's identity: (base action, logical request). *)
module Group_key = struct
  type t = Action.name * Value.t

  let equal (a, l) (b, m) = String.equal a b && Value.equal l m
  let hash (a, l) = Hashtbl.hash (Hashtbl.hash a, Value.hash l)
end

module Group_tbl = Hashtbl.Make (Group_key)

let key_of (e : Checker.expected) = (e.Checker.action, e.Checker.logical)

(* Each request's first group in the report, keyed by (action, logical):
   later groups with the same key can only be empty duplicates. *)
let group_index (report : Checker.report) =
  let tbl = Group_tbl.create (List.length report.Checker.groups) in
  List.iter
    (fun (g : Checker.group_result) ->
      let key = key_of g.Checker.expected in
      if not (Group_tbl.mem tbl key) then Group_tbl.add tbl key g)
    report.Checker.groups;
  tbl

let drive ~spec ?prepare ~aborted ~setup deploy =
  let n_clients = max 1 spec.clients in
  let spec =
    if n_clients <= spec.service_config.Xreplication.Service.n_clients then
      spec
    else
      {
        spec with
        service_config =
          { spec.service_config with Xreplication.Service.n_clients };
      }
  in
  let eng = Xsim.Engine.create ~seed:spec.seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng ~config:spec.env_config () in
  (match prepare with Some f -> f eng env | None -> ());
  let srv = setup env in
  let handle, d = deploy spec eng env srv in
  let done_iv = Xsim.Ivar.create () in
  let remaining = ref (List.length d.lanes) in
  List.iter
    (fun (proc, name, body) ->
      Xsim.Engine.spawn eng ~proc ~name (fun () ->
          body ();
          decr remaining;
          if !remaining = 0 then Xsim.Ivar.fill done_iv ()))
    d.lanes;
  List.iter
    (fun (at, idx) ->
      Xsim.Engine.schedule eng ~delay:at (fun () -> d.kill_replica idx))
    spec.crashes;
  (match spec.client_crash_at with
  | Some at -> Xsim.Engine.schedule eng ~delay:at d.kill_client
  | None -> ());
  (match spec.noise with
  | Some (probability, duration, until) ->
      List.iter
        (fun g ->
          match Xreplication.Service.oracle g with
          | Some o ->
              Xdetect.Oracle.enable_noise o ~probability ~duration ~until ()
          | None -> ())
        d.groups
  | None -> ());
  (* Drive until the workload completes (or the hard limit). *)
  let work_end = ref 0 in
  Xsim.Ivar.watch done_iv (fun () ->
      work_end := Xsim.Engine.now eng;
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:spec.time_limit eng;
  (* Quiesce: give cleaners and in-flight finalizations time to settle so
     the final history is not cut mid-action. *)
  let deadline =
    min spec.time_limit (Xsim.Engine.now eng + spec.quiesce_grace)
  in
  let rec quiesce () =
    let next = min deadline (Xsim.Engine.now eng + 500) in
    if (not (aborted ())) && Xsim.Engine.now eng < next then begin
      Xsim.Engine.run ~limit:next eng;
      if Xsm.Environment.in_flight env > 0 && Xsim.Engine.now eng < deadline
      then quiesce ()
      else if (not (aborted ())) && Xsim.Engine.now eng < deadline then begin
        (* One more slice: a cleaner may be between consensus and its
           finalization actions. *)
        Xsim.Engine.run ~limit:(min deadline (Xsim.Engine.now eng + 500)) eng;
        if Xsm.Environment.in_flight env > 0 && Xsim.Engine.now eng < deadline
        then quiesce ()
      end
    end
  in
  quiesce ();
  let completed = Xsim.Ivar.is_full done_iv in
  let issued = d.issued () in
  let submissions = d.submissions () in
  let history = Xsm.Environment.history env in
  let expected = List.map (Xsm.Environment.checker_expected env) issued in
  let ((report, _) as verdict) =
    let ((full, _) as full_verdict) = d.judge history expected in
    if full.Checker.ok || completed then full_verdict
    else
      (* Client crashed: also accept the history without the crashed
         client's last issued request, provided that request left no
         events (at-most-once, section 4). *)
      match d.crashed_last () with
      | Some last_req ->
          let last = key_of (Xsm.Environment.checker_expected env last_req) in
          let ((without_last, _) as without_verdict) =
            d.judge history
              (List.filter
                 (fun e -> not (Group_key.equal (key_of e) last))
                 expected)
          in
          let last_untouched =
            match Group_tbl.find_opt (group_index full) last with
            | Some g -> g.Checker.events = 0
            | None -> true
          in
          if without_last.Checker.ok && last_untouched then without_verdict
          else full_verdict
      | None -> full_verdict
  in
  let r4_violations =
    List.filter_map
      (fun s ->
        let possible = Xsm.Environment.possible_replies env s.req in
        if List.exists (Value.equal s.reply) possible then None
        else
          Some
            (Printf.sprintf "reply %s to %s not in PossibleReply {%s}"
               (Value.to_string s.reply) (Xsm.Request.key s.req)
               (String.concat ", " (List.map Value.to_string possible))))
      submissions
  in
  (* The reply the client accepted must be the output the request's effect
     actually settled on (the surviving execution in the reduced history).
     R4 alone admits any member of PossibleReply; a protocol that replies
     before outcome-consensus can return a value from a round that was
     later aborted — still a possible reply, but of no surviving effect. *)
  let reply_mismatches =
    let groups = group_index report in
    List.filter_map
      (fun s ->
        let key = key_of (Xsm.Environment.checker_expected env s.req) in
        match Group_tbl.find_opt groups key with
        | Some { Checker.output = Some v; _ } when not (Value.equal s.reply v)
          ->
            Some
              (Printf.sprintf
                 "client accepted %s for %s but its effect settled on %s"
                 (Value.to_string s.reply) (Xsm.Request.key s.req)
                 (Value.to_string v))
        | _ -> None)
      submissions
  in
  let false_suspicions =
    List.fold_left
      (fun acc g ->
        acc
        +
        match
          (Xreplication.Service.oracle g, Xreplication.Service.heartbeat g)
        with
        | Some o, _ -> Xdetect.Oracle.false_suspicions o
        | None, Some hb -> Xdetect.Heartbeat.false_suspicions hb
        | None, None -> 0)
      0 d.groups
  in
  let totals = d.totals () in
  (* Modelled substrate messages per served request, in milli-units so the
     integer gauge keeps two decimals (4000 = 4.0 msgs/request). *)
  if Xobs.enabled () then
    Xobs.Gauge.set
      (Xobs.gauge "coord.msgs_per_request")
      (totals.Xreplication.Service.coord_msgs
       * 1000
       / max 1 totals.Xreplication.Service.replies_sent);
  let result =
    {
      completed;
      end_time = Xsim.Engine.now eng;
      work_end_time = (if completed then !work_end else Xsim.Engine.now eng);
      submissions;
      report;
      r4_ok = r4_violations = [];
      r4_violations;
      reply_mismatches;
      env_violations = Xsm.Environment.violations env;
      duplicate_effects = Xsm.Environment.duplicate_effects env;
      engine_errors =
        List.map
          (fun (t, f, e) -> (t, f, Printexc.to_string e))
          (Xsim.Engine.errors eng);
      totals;
      history_length = History.length history;
      false_suspicions;
      rounds_per_request =
        Stats.ratio totals.Xreplication.Service.rounds_owned
          (max 1 (List.length issued));
      shard_reports = snd verdict;
    }
  in
  (result, srv, handle)

let run ~spec ?prepare ?(aborted = fun () -> false) ?cache ~setup ~workload () =
  let deploy spec eng env srv =
    let n_clients = max 1 spec.clients in
    let n_lanes = max 1 spec.inflight in
    let workers = n_clients * n_lanes in
    let svc = Xreplication.Service.create eng env spec.service_config in
    let submissions_rev = ref [] in
    let issued_rev = ref [] in
    let submit_on client req =
      issued_rev := req :: !issued_rev;
      let t0 = Xsim.Engine.now eng in
      let reply = Xreplication.Client.submit_until_success client req in
      submissions_rev :=
        { req; reply; latency = Xsim.Engine.now eng - t0 } :: !submissions_rev;
      reply
    in
    let lane c name =
      let cl = Xreplication.Service.client svc c in
      ( Xreplication.Client.proc cl,
        name,
        fun () -> workload srv cl (submit_on cl) )
    in
    (* Closed loop: [clients] client processes, each driving [inflight]
       concurrent lanes of the workload. *)
    let lanes =
      if workers = 1 then [ lane 0 "workload" ]
      else
        List.concat
          (List.init n_clients (fun c ->
               List.init n_lanes (fun k ->
                   lane c (Printf.sprintf "workload%d.%d" c k))))
    in
    let check history exp =
      (* Concurrent lanes have no per-client sequential order to check. *)
      Checker.check ~kinds:(Xsm.Environment.kind_of env)
        ~logical_of:Xsm.Request.logical_of_env_iv
        ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid
        ~check_order:(workers = 1) ?cache ~expected:exp history
    in
    ( (),
      {
        lanes;
        kill_replica = Xreplication.Service.kill_replica svc;
        kill_client = (fun () -> Xreplication.Service.kill_client svc 0);
        groups = [ svc ];
        totals = (fun () -> Xreplication.Service.totals svc);
        issued = (fun () -> List.rev !issued_rev);
        submissions = (fun () -> List.rev !submissions_rev);
        crashed_last =
          (fun () ->
            match !issued_rev with last :: _ -> Some last | [] -> None);
        judge = (fun history exp -> (check history exp, []));
      } )
  in
  let result, srv, () = drive ~spec ?prepare ~aborted ~setup deploy in
  (result, srv)

(* ------------------------------------------------------------------ *)
(* Sharded runs.  Same closed-loop discipline as [run], but the load is
   per shard — [spec.clients] sessions x [spec.inflight] lanes on every
   shard — and verification applies the paper's section-4 composition
   theorem: the global history is projected per shard by the same pure
   key function the router used online, each projection checked
   independently, verdicts conjoined (Checker.compose). *)

let run_sharded ~spec ?prepare ?(aborted = fun () -> false) ?cache ~setup
    ~workload () =
  let deploy spec eng env srv =
    let n_sessions = max 1 spec.clients in
    let n_lanes = max 1 spec.inflight in
    let n_shards = max 1 spec.service_config.Xreplication.Service.shards in
    let d = Xshard.Deployment.create eng env spec.service_config in
    let sessions =
      Array.init n_shards (fun shard ->
          Array.init n_sessions (fun client ->
              Xshard.Deployment.session d ~shard ~client))
    in
    let lanes =
      List.concat_map
        (fun shard ->
          List.concat_map
            (fun c ->
              let sess = sessions.(shard).(c) in
              List.init n_lanes (fun k ->
                  ( Xshard.Deployment.session_proc sess,
                    Printf.sprintf "workload.s%d.%d.%d" shard c k,
                    fun () -> workload srv d sess )))
            (List.init n_sessions Fun.id))
        (List.init n_shards Fun.id)
    in
    let compose history exp =
      (* Concurrent per-shard sessions induce no global request order. *)
      let c =
        Checker.compose ~kinds:(Xsm.Environment.kind_of env)
          ~logical_of:Xsm.Request.logical_of_env_iv
          ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid
          ~check_order:false ?cache
          ~shard_of:(Xshard.Deployment.shard_of_expected d)
          ~expected:exp history
      in
      (c.Checker.combined, c.Checker.per_shard)
    in
    ( d,
      {
        lanes;
        (* Crash schedule: [idx] is the flat index shard * n_replicas + r. *)
        kill_replica = Xshard.Deployment.kill_replica d;
        kill_client =
          (fun () -> Xshard.Deployment.kill_session d ~shard:0 ~client:0);
        groups = List.init n_shards (Xshard.Deployment.group d);
        totals =
          (fun () -> (Xshard.Deployment.totals d).Xshard.Deployment.service);
        issued = (fun () -> Xshard.Deployment.issued d);
        submissions =
          (fun () ->
            List.map
              (fun (s : Xshard.Deployment.submission) ->
                {
                  req = s.Xshard.Deployment.req;
                  reply = s.Xshard.Deployment.reply;
                  latency = s.Xshard.Deployment.latency;
                })
              (Xshard.Deployment.submissions d));
        crashed_last =
          (fun () ->
            match
              List.rev (Xshard.Deployment.session_issued sessions.(0).(0))
            with
            | last :: _ -> Some last
            | [] -> None);
        judge = compose;
      } )
  in
  drive ~spec ?prepare ~aborted ~setup deploy

let timed_pp ppf r =
  Format.fprintf ppf
    "completed=%b x-able=%b r4=%b dup=%d rounds/req=%.2f hist=%d end=%d"
    r.completed r.report.Checker.ok r.r4_ok r.duplicate_effects
    r.rounds_per_request r.history_length r.end_time
