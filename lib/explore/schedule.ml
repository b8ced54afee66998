(* A schedule is everything that makes one explored run different from
   another: the RNG seed, the protocol variant, the fault plan, and the
   scheduling decisions (choice-point shifts).  Replaying a schedule on
   the same workload reproduces the run byte-for-byte — same virtual
   times, same request ids, same history, same verdict — which is what
   makes shrinking and counterexample dumps trustworthy. *)

(* The network fault plan, in explorer coordinates: probabilities and
   replica indices rather than addresses, so it serializes compactly and
   is independent of how a run names its nodes.  [Explorer.apply]
   converts it to an [Xnet.Fault.t] for the service transport. *)
type fault_plan = {
  loss : float;  (** per-message drop probability on every link *)
  dup_prob : float;  (** per-message duplication probability *)
  jitter : int;  (** extra reorder delay, uniform in [0, jitter] *)
  partitions : (int * int * int list) list;
      (** (start, heal, replica indices severed from the rest) *)
  forced : (int * int) list;
      (** (transport send index, 0 = drop | 1 = duplicate): systematic
          fault events for enumeration strategies *)
}

let no_faults =
  { loss = 0.0; dup_prob = 0.0; jitter = 0; partitions = []; forced = [] }

let faults_are_none f = f = no_faults

type t = {
  seed : int;  (** engine RNG seed *)
  window : int;  (** ready-window width offered to the chooser *)
  mutation : Xreplication.Mutation.t;
  crashes : (int * int) list;  (** (virtual time, replica index) *)
  client_crash_at : int option;
  noise : (float * int * int) option;
      (** oracle false-suspicion noise: (probability, duration, until) *)
  faults : fault_plan;
  batching : (int * int * int) option;
      (** replica-side request batching: (batch size, pipeline depth,
          epoch tick); [None] = per-request protocol *)
  load : (int * int) option;
      (** workload concurrency: (clients, inflight lanes per client);
          [None] = the scenario's own (sequential) load *)
  codec : Xreplication.Service.codec_mode;
      (** wire representation under exploration; [Structural] = the
          scenario's own setting (the default) *)
  shards : int option;
      (** shard count override: [Some n] runs the scenario on an [n]-way
          sharded deployment; [None] = the scenario's own (single-group)
          setting *)
  router_blocks : (int * int * int) list;
      (** (from, until, shard): router-directory partitions — the
          router's entry for [shard] is unavailable during the window *)
  lease : bool;
      (** arm the leased-owner fast path; [false] = the scenario's own
          (unleased) setting (the default) *)
  substrate : string option;
      (** consensus substrate override ("register" / "paxos" / "seqlog");
          [None] = the scenario's own setting *)
  shifts : (int * int) list;
      (** sparse scheduling decisions: at choice point [step], pick ready
          entry [k] (> 0) instead of the default front of the queue;
          sorted by step, each shift in [1, window) *)
}

let make ?(window = 4) ?(mutation = Xreplication.Mutation.Faithful)
    ?(crashes = []) ?client_crash_at ?noise ?(faults = no_faults) ?batching
    ?load ?(codec = Xreplication.Service.Structural) ?shards
    ?(router_blocks = []) ?(lease = false) ?substrate ?(shifts = []) ~seed () =
  {
    seed;
    window;
    mutation;
    crashes;
    client_crash_at;
    noise;
    faults;
    batching;
    load;
    codec;
    shards;
    router_blocks;
    lease;
    substrate;
    shifts = List.sort (fun (a, _) (b, _) -> Int.compare a b) shifts;
  }

let equal a b = a = b

(* The replay chooser: look the choice point up in the shift table,
   default to the front of the queue.  Total — steps beyond the recorded
   ones take the default, so a shrunk schedule (fewer shifts) is still a
   valid schedule of the same workload. *)
let chooser t : Xsim.Engine.chooser =
  let tbl = Hashtbl.create (List.length t.shifts) in
  List.iter (fun (s, k) -> Hashtbl.replace tbl s k) t.shifts;
  fun ~step ~ready:_ ->
    match Hashtbl.find_opt tbl step with Some k -> k | None -> 0

(* ------------------------------------------------------------------ *)
(* Serialization: one line of [key=value] tokens.  Floats go through
   %h/float_of_string, which round-trips exactly.                      *)

let string_of_pairs sep pairs =
  if pairs = [] then "-"
  else
    String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "%d%c%d" a sep b) pairs)

let pairs_of_string sep s =
  if s = "-" then Some []
  else
    let parse_pair tok =
      match String.index_opt tok sep with
      | None -> None
      | Some i -> (
          match
            ( int_of_string_opt (String.sub tok 0 i),
              int_of_string_opt
                (String.sub tok (i + 1) (String.length tok - i - 1)) )
          with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
    in
    let toks = String.split_on_char ',' s in
    let parsed = List.filter_map parse_pair toks in
    if List.length parsed = List.length toks then Some parsed else None

let string_of_partitions ps =
  if ps = [] then "-"
  else
    String.concat ","
      (List.map
         (fun (s, h, idxs) ->
           Printf.sprintf "%d:%d:%s" s h
             (String.concat "." (List.map string_of_int idxs)))
         ps)

let partitions_of_string s =
  if s = "-" then Some []
  else
    let parse tok =
      match String.split_on_char ':' tok with
      | [ s; h; g ] -> (
          match (int_of_string_opt s, int_of_string_opt h) with
          | Some s, Some h ->
              let idxs =
                List.filter_map int_of_string_opt (String.split_on_char '.' g)
              in
              if
                g <> ""
                && List.length idxs
                   = List.length (String.split_on_char '.' g)
              then Some (s, h, idxs)
              else None
          | _ -> None)
      | _ -> None
    in
    let toks = String.split_on_char ',' s in
    let parsed = List.filter_map parse toks in
    if List.length parsed = List.length toks then Some parsed else None

let string_of_net f =
  if f.loss = 0.0 && f.dup_prob = 0.0 && f.jitter = 0 then "-"
  else Printf.sprintf "%h:%h:%d" f.loss f.dup_prob f.jitter

let net_of_string s =
  if s = "-" then Some (0.0, 0.0, 0)
  else
    match String.split_on_char ':' s with
    | [ l; d; j ] -> (
        match
          (float_of_string_opt l, float_of_string_opt d, int_of_string_opt j)
        with
        | Some l, Some d, Some j -> Some (l, d, j)
        | _ -> None)
    | _ -> None

(* (from, until, shard) triples, e.g. router-block windows. *)
let string_of_triples ts =
  if ts = [] then "-"
  else
    String.concat ","
      (List.map (fun (f, u, s) -> Printf.sprintf "%d:%d:%d" f u s) ts)

let triples_of_string s =
  if s = "-" then Some []
  else
    let parse tok =
      match String.split_on_char ':' tok with
      | [ f; u; s ] -> (
          match
            (int_of_string_opt f, int_of_string_opt u, int_of_string_opt s)
          with
          | Some f, Some u, Some s -> Some (f, u, s)
          | _ -> None)
      | _ -> None
    in
    let toks = String.split_on_char ',' s in
    let parsed = List.filter_map parse toks in
    if List.length parsed = List.length toks then Some parsed else None

let to_string t =
  let noise =
    match t.noise with
    | None -> "-"
    | Some (p, dur, until) -> Printf.sprintf "%h:%d:%d" p dur until
  in
  (* The sharding tokens are appended only when non-default, keeping
     pre-sharding schedule lines byte-identical. *)
  let shard_tokens =
    (match t.shards with
    | None -> []
    | Some n -> [ Printf.sprintf "shards=%d" n ])
    @
    match t.router_blocks with
    | [] -> []
    | bs -> [ Printf.sprintf "rblk=%s" (string_of_triples bs) ]
  in
  (* Lease/substrate tokens likewise append only when non-default. *)
  let lease_tokens =
    (if t.lease then [ "lease=1" ] else [])
    @ match t.substrate with None -> [] | Some s -> [ "sub=" ^ s ]
  in
  String.concat " "
    (Printf.sprintf
       "v1 seed=%d win=%d mut=%s crashes=%s ccrash=%s noise=%s net=%s \
        parts=%s netf=%s bat=%s load=%s codec=%s shifts=%s"
       t.seed t.window
    (Xreplication.Mutation.to_string t.mutation)
    (string_of_pairs ':' t.crashes)
    (match t.client_crash_at with None -> "-" | Some at -> string_of_int at)
    noise
    (string_of_net t.faults)
    (string_of_partitions t.faults.partitions)
    (string_of_pairs ':' t.faults.forced)
    (match t.batching with
    | None -> "-"
    | Some (size, depth, tick) -> Printf.sprintf "%d:%d:%d" size depth tick)
    (match t.load with
    | None -> "-"
    | Some (c, k) -> Printf.sprintf "%d:%d" c k)
       (match t.codec with
       | Xreplication.Service.Structural -> "-"
       | Xreplication.Service.Flat -> "flat")
       (string_of_pairs ':' t.shifts)
    :: (shard_tokens @ lease_tokens))

let of_string line =
  let ( let* ) = Option.bind in
  match String.split_on_char ' ' (String.trim line) with
  | "v1" :: toks ->
      let field key =
        List.find_map
          (fun tok ->
            let prefix = key ^ "=" in
            let pl = String.length prefix in
            if
              String.length tok >= pl
              && String.equal (String.sub tok 0 pl) prefix
            then Some (String.sub tok pl (String.length tok - pl))
            else None)
          toks
      in
      let* seed = Option.bind (field "seed") int_of_string_opt in
      let* window = Option.bind (field "win") int_of_string_opt in
      let* mutation = Option.bind (field "mut") Xreplication.Mutation.of_string in
      let* crashes = Option.bind (field "crashes") (pairs_of_string ':') in
      let* client_crash_at =
        match field "ccrash" with
        | Some "-" -> Some None
        | Some s -> Option.map Option.some (int_of_string_opt s)
        | None -> None
      in
      let* noise =
        match field "noise" with
        | Some "-" -> Some None
        | Some s -> (
            match String.split_on_char ':' s with
            | [ p; dur; until ] -> (
                match
                  ( float_of_string_opt p,
                    int_of_string_opt dur,
                    int_of_string_opt until )
                with
                | Some p, Some dur, Some until -> Some (Some (p, dur, until))
                | _ -> None)
            | _ -> None)
        | None -> None
      in
      let* shifts = Option.bind (field "shifts") (pairs_of_string ':') in
      (* Fault tokens default when absent, so pre-fault-plane "v1" lines
         (and shrunk lines that dropped the tokens) still parse. *)
      let* loss, dup_prob, jitter =
        net_of_string (Option.value (field "net") ~default:"-")
      in
      let* partitions =
        partitions_of_string (Option.value (field "parts") ~default:"-")
      in
      let* forced =
        pairs_of_string ':' (Option.value (field "netf") ~default:"-")
      in
      (* Batching/load tokens also default when absent (pre-batching
         lines). *)
      let* batching =
        match Option.value (field "bat") ~default:"-" with
        | "-" -> Some None
        | s -> (
            match String.split_on_char ':' s with
            | [ b; d; t ] -> (
                match
                  (int_of_string_opt b, int_of_string_opt d, int_of_string_opt t)
                with
                | Some b, Some d, Some t -> Some (Some (b, d, t))
                | _ -> None)
            | _ -> None)
      in
      let* load =
        match Option.value (field "load") ~default:"-" with
        | "-" -> Some None
        | s -> (
            match String.split_on_char ':' s with
            | [ c; k ] -> (
                match (int_of_string_opt c, int_of_string_opt k) with
                | Some c, Some k -> Some (Some (c, k))
                | _ -> None)
            | _ -> None)
      in
      (* Codec token also defaults when absent (pre-codec lines). *)
      let* codec =
        match Option.value (field "codec") ~default:"-" with
        | "-" -> Some Xreplication.Service.Structural
        | "flat" -> Some Xreplication.Service.Flat
        | _ -> None
      in
      (* Sharding tokens default when absent (pre-sharding lines). *)
      let* shards =
        match Option.value (field "shards") ~default:"-" with
        | "-" -> Some None
        | s -> Option.map Option.some (int_of_string_opt s)
      in
      let* router_blocks =
        triples_of_string (Option.value (field "rblk") ~default:"-")
      in
      (* Lease/substrate tokens default when absent (pre-lease lines). *)
      let* lease =
        match Option.value (field "lease") ~default:"0" with
        | "0" -> Some false
        | "1" -> Some true
        | _ -> None
      in
      let* substrate =
        match Option.value (field "sub") ~default:"-" with
        | "-" -> Some None
        | s when List.mem s Xreplication.Coord.substrate_names ->
            Some (Some s)
        | _ -> None
      in
      let faults = { loss; dup_prob; jitter; partitions; forced } in
      Some
        (make ~window ~mutation ~crashes ?client_crash_at ?noise ~faults
           ?batching ?load ~codec ?shards ~router_blocks ~lease ?substrate
           ~shifts ~seed ())
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_json t =
  let pairs ps =
    "["
    ^ String.concat "," (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) ps)
    ^ "]"
  in
  Printf.sprintf
    "{\"seed\":%d,\"window\":%d,\"mutation\":%S,\"crashes\":%s,\"client_crash_at\":%s,\"noise\":%s,\"faults\":%s,\"shifts\":%s}"
    t.seed t.window
    (Xreplication.Mutation.to_string t.mutation)
    (pairs t.crashes)
    (match t.client_crash_at with None -> "null" | Some at -> string_of_int at)
    (match t.noise with
    | None -> "null"
    | Some (p, dur, until) ->
        Printf.sprintf "{\"probability\":%.17g,\"duration\":%d,\"until\":%d}" p
          dur until)
    (if faults_are_none t.faults then "null"
     else
       Printf.sprintf
         "{\"loss\":%.17g,\"dup\":%.17g,\"jitter\":%d,\"partitions\":%s,\"forced\":%s}"
         t.faults.loss t.faults.dup_prob t.faults.jitter
         ("["
         ^ String.concat ","
             (List.map
                (fun (s, h, idxs) ->
                  Printf.sprintf "[%d,%d,[%s]]" s h
                    (String.concat "," (List.map string_of_int idxs)))
                t.faults.partitions)
         ^ "]")
         (pairs t.faults.forced))
    (pairs t.shifts)
  |> fun base ->
  (* Extend the object with the batching/load/codec/sharding dimensions
     when present, keeping pre-batching JSON byte-identical. *)
  let extra =
    (match t.batching with
    | None -> []
    | Some (b, d, tick) ->
        [
          Printf.sprintf
            "\"batching\":{\"size\":%d,\"depth\":%d,\"tick\":%d}" b d tick;
        ])
    @ (match t.load with
      | None -> []
      | Some (c, k) ->
          [ Printf.sprintf "\"load\":{\"clients\":%d,\"inflight\":%d}" c k ])
    @ (match t.codec with
      | Xreplication.Service.Structural -> []
      | Xreplication.Service.Flat -> [ "\"codec\":\"flat\"" ])
    @ (match t.shards with
      | None -> []
      | Some n -> [ Printf.sprintf "\"shards\":%d" n ])
    @ (match t.router_blocks with
      | [] -> []
      | bs ->
          [
            Printf.sprintf "\"router_blocks\":[%s]"
              (String.concat ","
                 (List.map
                    (fun (f, u, s) -> Printf.sprintf "[%d,%d,%d]" f u s)
                    bs));
          ])
    @ (if t.lease then [ "\"lease\":true" ] else [])
    @ match t.substrate with None -> [] | Some s -> [ Printf.sprintf "\"substrate\":%S" s ]
  in
  if extra = [] then base
  else
    String.sub base 0 (String.length base - 1)
    ^ "," ^ String.concat "," extra ^ "}"
