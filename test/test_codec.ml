(* Flat wire codec tests.

   Three layers of guarantees:
   1. Primitives and every message codec are exact inverses
      (decode . encode = id, qcheck) and total on bad input: any
      truncation or byte-level corruption either decodes to some value
      or raises [Codec.Malformed] — never another exception, and a
      strict prefix of a valid encoding never decodes.
   2. The arena and the transport's flat mode move the bytes: slots are
      reused across sends, duplicates share one encoding, and a flat
      transport delivers payloads equal to the structural ones.
   3. End to end, [Service.Flat] is a representation change only:
      per-request verdicts and replies equal the structural run's at
      JOBS=1 and JOBS=4 under random fault plans (the tentpole's
      byte-identity property).

   Satellites also covered here: the [Transport.link_hash] collision
   sanity check, [Bench_compare] missing-path handling, and the
   schedule line's [codec=] token round-trip + back-compat parse. *)

module C = Xnet.Codec
module Address = Xnet.Address
module Arena = Xnet.Arena
module Transport = Xnet.Transport
module Reliable = Xnet.Reliable
module Paxos = Xconsensus.Paxos
module Wire = Xreplication.Wire
module Pval = Xreplication.Pval
module Service = Xreplication.Service
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Bench_compare = Xworkload.Bench_compare
module Schedule = Xexplore.Schedule
module Value = Xability.Value
module Request = Xsm.Request
module Engine = Xsim.Engine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_value =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self n ->
        let base =
          oneof
            [
              return Value.Nil;
              return Value.Unit;
              map Value.bool bool;
              map Value.int int;
              map Value.int small_signed_int;
              map Value.str (string_size (int_bound 12));
            ]
        in
        if n <= 0 then base
        else
          frequency
            [
              (3, base);
              (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
              (1, map Value.list (list_size (int_bound 4) (self (n / 3))));
            ]))

let gen_address =
  QCheck.Gen.(
    map2
      (fun role index -> Address.make ~role ~index)
      (oneofl [ "replica"; "client"; "px"; "" ])
      small_signed_int)

let gen_request =
  QCheck.Gen.(
    map
      (fun ((rid, action, kind, round), input) ->
        {
          Request.rid;
          action;
          kind =
            (if kind then Xability.Action.Idempotent
             else Xability.Action.Undoable);
          round;
          input;
        })
      (pair
         (quad int (string_size (int_bound 16)) bool small_nat)
         gen_value))

let gen_wire =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun req client -> Wire.Request { req; client })
          gen_request gen_address;
        map2 (fun rid value -> Wire.Result { rid; value }) int gen_value;
      ])

let gen_outcome = QCheck.Gen.(map (fun b -> if b then Pval.Commit else Pval.Abort) bool)

let gen_pval_plain =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun owner req client -> Pval.Owner { owner; req; client })
          gen_address gen_request gen_address;
        map (fun v -> Pval.Result v) (option gen_value);
        map2
          (fun outcome result -> Pval.Outcome { outcome; result })
          gen_outcome (option gen_value);
        map3
          (fun owner bid members -> Pval.Batch { owner; bid; members })
          gen_address small_nat
          (list_size (int_bound 5) (pair gen_request gen_address));
        map2
          (fun outcome results -> Pval.Batch_outcome { outcome; results })
          gen_outcome
          (list_size (int_bound 5) (pair int (option gen_value)));
      ])

(* Plain pvals plus the {!Pval.Leased} fence wrapper (the fast path's
   epoch evidence), which the codec encodes recursively. *)
let gen_pval =
  QCheck.Gen.(
    oneof
      [
        gen_pval_plain;
        map2
          (fun epoch inner -> Pval.Leased { epoch; inner })
          small_nat gen_pval_plain;
      ])

let gen_paxos_msg =
  QCheck.Gen.(
    let inst = string_size (int_bound 10) in
    oneof
      [
        map2 (fun inst ballot -> Paxos.Prepare { inst; ballot }) inst small_nat;
        map3
          (fun inst ballot accepted -> Paxos.Promise { inst; ballot; accepted })
          inst small_nat
          (option (pair small_nat gen_value));
        map3
          (fun inst ballot value -> Paxos.Accept { inst; ballot; value })
          inst small_nat gen_value;
        map2 (fun inst ballot -> Paxos.Accepted { inst; ballot }) inst small_nat;
        map3
          (fun inst ballot promised -> Paxos.Nack { inst; ballot; promised })
          inst small_nat small_nat;
        map2 (fun inst value -> Paxos.Decided { inst; value }) inst gen_value;
      ])

let gen_packet =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun seq ack payload -> Reliable.Data { seq; ack; payload })
          small_nat small_nat gen_wire;
        map (fun ack -> Reliable.Ack { ack }) small_nat;
      ])

(* ------------------------------------------------------------------ *)
(* 1. Round-trip + rejection properties, one per codec *)

let paxos_codec = Paxos.msg_codec Wire.value_codec
let packet_codec = Reliable.packet_codec Wire.codec

(* decode (encode m) = m, through fresh bytes (to_bytes/of_bytes, which
   also enforces expect_end: no codec may leave trailing bytes). *)
let roundtrip_prop name codec gen =
  QCheck.Test.make ~name:(name ^ ": decode . encode = id") ~count:300
    (QCheck.make gen) (fun m -> C.of_bytes codec (C.to_bytes codec m) = m)

(* Every strict prefix of a valid encoding must raise Malformed: the
   decoders consume a deterministic byte count, so a truncated frame can
   neither decode silently nor crash with anything else. *)
let truncation_prop name codec gen =
  QCheck.Test.make ~name:(name ^ ": every strict prefix is Malformed")
    ~count:60 (QCheck.make gen) (fun m ->
      let b = C.to_bytes codec m in
      let n = Bytes.length b in
      let ok = ref true in
      for len = 0 to n - 1 do
        match C.of_bytes codec (Bytes.sub b 0 len) with
        | _ -> ok := false
        | exception C.Malformed _ -> ()
      done;
      !ok)

(* Byte-level corruption (a random byte of a valid encoding replaced by
   a random value) either still decodes to some value or raises
   Malformed — never any other exception. *)
let corruption_prop name codec gen =
  QCheck.Test.make ~name:(name ^ ": corrupt bytes never escape Malformed")
    ~count:200
    (QCheck.make QCheck.Gen.(triple gen (int_bound 10_000) (int_bound 255)))
    (fun (m, at, v) ->
      let b = C.to_bytes codec m in
      if Bytes.length b = 0 then true
      else begin
        Bytes.set b (at mod Bytes.length b) (Char.chr v);
        match C.of_bytes codec b with
        | _ -> true
        | exception C.Malformed _ -> true
      end)

(* Pure garbage: random byte strings. *)
let garbage_prop name codec =
  QCheck.Test.make ~name:(name ^ ": random bytes never escape Malformed")
    ~count:300
    (QCheck.make QCheck.Gen.(string_size (int_bound 40)))
    (fun s ->
      match C.of_bytes codec (Bytes.of_string s) with
      | _ -> true
      | exception C.Malformed _ -> true)

(* The codecs have different message types, so each contributes its own
   (already monomorphic) alcotest cases. *)
let suite_for name codec gen =
  [
    QCheck_alcotest.to_alcotest (roundtrip_prop name codec gen);
    QCheck_alcotest.to_alcotest (truncation_prop name codec gen);
    QCheck_alcotest.to_alcotest (corruption_prop name codec gen);
    QCheck_alcotest.to_alcotest (garbage_prop name codec);
  ]

let codec_suites =
  suite_for "address" C.address gen_address
  @ suite_for "value" Wire.value_codec gen_value
  @ suite_for "request" Wire.request_codec gen_request
  @ suite_for "wire" Wire.codec gen_wire
  @ suite_for "pval" Pval.codec gen_pval
  @ suite_for "paxos-msg" paxos_codec gen_paxos_msg
  @ suite_for "reliable-packet" packet_codec gen_packet

(* Primitive edge cases the generators may miss. *)
let test_varint_extremes () =
  List.iter
    (fun n ->
      let w = C.writer () in
      C.write_int w n;
      let r = C.of_writer w in
      checki (Printf.sprintf "int %d" n) n (C.read_int r);
      C.expect_end r)
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 62; -(1 lsl 62) ]

let test_overlong_varint_rejected () =
  (* Ten continuation bytes: more than any 63-bit int can need. *)
  let b = Bytes.make 10 '\x80' in
  Bytes.set b 9 '\x01';
  let r = C.reader b in
  checkb "overlong raises" true
    (try
       ignore (C.read_int r);
       false
     with C.Malformed _ -> true)

let test_string_length_validated_before_alloc () =
  (* A length prefix claiming far more bytes than remain must raise
     Malformed without attempting the allocation. *)
  let w = C.writer () in
  C.write_uint w 1_000_000_000;
  let r = C.of_writer w in
  checkb "huge length rejected" true
    (try
       ignore (C.read_str r);
       false
     with C.Malformed _ -> true)

let test_write_uint_negative_rejected () =
  let w = C.writer () in
  checkb "negative uint" true
    (try
       C.write_uint w (-1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* 2. Arena + flat transport mechanics *)

let test_arena_reuse () =
  let a = Arena.create () in
  let s1 = Arena.acquire a in
  C.write_str s1.Arena.sw "x";
  Arena.release a s1;
  let s2 = Arena.acquire a in
  checkb "slot reused" true (s1 == s2);
  checki "writer reset on acquire" 0 (C.length s2.Arena.sw);
  Arena.release a s2;
  let st = Arena.stats a in
  checki "one buffer ever" 1 st.Arena.slots;
  checki "two acquires" 2 st.Arena.acquires

let test_arena_retain () =
  let a = Arena.create () in
  let s = Arena.acquire a in
  Arena.retain s;
  Arena.release a s;
  (* still referenced: a fresh acquire must not hand the same slot out *)
  let other = Arena.acquire a in
  checkb "retained slot not reissued" true (s != other);
  Arena.release a other;
  Arena.release a s;
  let s' = Arena.acquire a in
  checkb "reissued after last release" true (s == s' || other == s')

let str_codec = { C.encode = C.write_str; decode = C.read_str }

let flat_setup ?faults () =
  let eng = Engine.create ~seed:5 () in
  let tr =
    Transport.create eng ?faults ~codec:str_codec
      ~latency:(Xnet.Latency.Constant 10) ()
  in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  let mba = Transport.register tr a ~proc:(Xsim.Proc.create ~name:"a") in
  let mbb = Transport.register tr b ~proc:(Xsim.Proc.create ~name:"b") in
  ignore mba;
  (eng, tr, a, b, mbb)

let test_flat_transport_delivers () =
  let eng, tr, a, b, mbb = flat_setup () in
  Transport.send tr ~src:a ~dst:b "hello flat";
  let got = ref None in
  Engine.spawn eng ~name:"recv" (fun () ->
      got := Some (Xsim.Mailbox.take eng mbb).Transport.payload);
  Engine.run eng;
  (match !got with
  | Some "hello flat" -> ()
  | _ -> Alcotest.fail "flat payload lost or corrupted");
  let st = Transport.arena_stats tr in
  checki "one slot acquired" 1 st.Arena.acquires;
  checki "one buffer allocated" 1 st.Arena.slots

let test_flat_transport_slot_reuse () =
  let eng, tr, a, b, mbb = flat_setup () in
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 50 do
        got := (Xsim.Mailbox.take eng mbb).Transport.payload :: !got
      done);
  Engine.spawn eng ~name:"send" (fun () ->
      for i = 1 to 50 do
        Transport.send tr ~src:a ~dst:b (string_of_int i);
        Xsim.Engine.sleep eng 20
      done);
  Engine.run eng;
  checki "all delivered" 50 (List.length !got);
  let st = Transport.arena_stats tr in
  checki "fifty acquires" 50 st.Arena.acquires;
  (* Sends are spaced past the constant latency, so one in-flight slot
     serves the whole run: steady state allocates no new buffers. *)
  checki "one buffer serves the link" 1 st.Arena.slots

let test_flat_transport_duplicate_shares_slot () =
  let eng, tr, a, b, mbb =
    flat_setup
      ~faults:(Xnet.Fault.make ~forced:[ (0, Xnet.Fault.Duplicate) ] ())
      ()
  in
  Transport.send tr ~src:a ~dst:b "dup";
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 2 do
        got := (Xsim.Mailbox.take eng mbb).Transport.payload :: !got
      done);
  Engine.run eng;
  checkb "both copies decoded" true (!got = [ "dup"; "dup" ]);
  let st = Transport.arena_stats tr in
  checki "one encoding for both deliveries" 1 st.Arena.acquires

(* ------------------------------------------------------------------ *)
(* link_hash collision sanity (satellite 1) *)

let test_link_hash_collisions () =
  let addrs =
    List.concat_map
      (fun role -> List.init 32 (fun i -> Address.make ~role ~index:i))
      [ "replica"; "client"; "px" ]
  in
  let seen = Hashtbl.create 4096 in
  let pairs = ref 0 and collisions = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr pairs;
          let h = Transport.link_hash a b in
          checkb "non-negative" true (h >= 0);
          (match Hashtbl.find_opt seen h with
          | Some (a', b') when not (Address.equal a a' && Address.equal b b') ->
              incr collisions
          | _ -> ());
          Hashtbl.replace seen h (a, b))
        addrs)
    addrs;
  checki "all ordered pairs hashed" (96 * 96) !pairs;
  (* 9216 pairs into a 62-bit space: any clustering means the mix is
     broken.  Allow a whisker of slack over zero. *)
  checkb
    (Printf.sprintf "collisions (%d) under 1%%" !collisions)
    true
    (!collisions * 100 < !pairs);
  (* Direction matters: a->b and b->a are different links. *)
  let a = Address.make ~role:"replica" ~index:0 in
  let b = Address.make ~role:"replica" ~index:1 in
  checkb "asymmetric" true (Transport.link_hash a b <> Transport.link_hash b a)

(* The address population a 64-shard deployment actually creates: role
   strings carry the shard prefix ("s17.replica"), so the mix has to
   spread structured, highly-similar strings — exactly where a weak
   string hash would cluster. *)
let shard_scale_addrs () =
  List.concat
    (List.init 64 (fun s ->
         List.init 3 (fun i ->
             Address.make ~role:(Printf.sprintf "s%d.replica" s) ~index:i)
         @ List.init 2 (fun i ->
               Address.make ~role:(Printf.sprintf "s%d.client" s) ~index:i)
         @ [ Address.make ~role:"router" ~index:s ]))

let test_link_hash_shard_scale () =
  let addrs = shard_scale_addrs () in
  checki "population" 384 (List.length addrs);
  let seen = Hashtbl.create (1 lsl 18) in
  let pairs = ref 0 and collisions = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr pairs;
          let h = Transport.link_hash a b in
          checkb "non-negative" true (h >= 0);
          (match Hashtbl.find_opt seen h with
          | Some (a', b') when not (Address.equal a a' && Address.equal b b') ->
              incr collisions
          | _ -> ());
          Hashtbl.replace seen h (a, b))
        addrs)
    addrs;
  checki "all ordered pairs hashed" (384 * 384) !pairs;
  (* 147k pairs into a 62-bit space: collisions mean the inline integer
     mix degenerates on prefixed role strings. *)
  checki
    (Printf.sprintf "collisions (%d) at shard scale" !collisions)
    0 !collisions

let test_flat_shard_scale_slot_reuse () =
  (* One shared wire, 64 shards' worth of links (the sharded deployment
     multiplexes every group over a single transport): slots must be
     bounded by peak in-flight, not by links x messages. *)
  let eng = Engine.create ~seed:11 () in
  let tr =
    Transport.create eng ~codec:str_codec ~latency:(Xnet.Latency.Constant 10)
      ()
  in
  let links =
    List.init 64 (fun s ->
        let src =
          Address.make ~role:(Printf.sprintf "s%d.client" s) ~index:0
        in
        let dst =
          Address.make ~role:(Printf.sprintf "s%d.replica" s) ~index:0
        in
        let mb =
          Transport.register tr dst
            ~proc:(Xsim.Proc.create ~name:(Address.to_string dst))
        in
        ignore
          (Transport.register tr src
             ~proc:(Xsim.Proc.create ~name:(Address.to_string src)));
        (src, dst, mb))
  in
  let rounds = 10 in
  let received = ref 0 in
  List.iter
    (fun (_, dst, mb) ->
      Engine.spawn eng ~name:("recv." ^ Address.to_string dst) (fun () ->
          for _ = 1 to rounds do
            ignore (Xsim.Mailbox.take eng mb).Transport.payload;
            incr received
          done))
    links;
  Engine.spawn eng ~name:"send" (fun () ->
      for i = 1 to rounds do
        List.iter
          (fun (src, dst, _) ->
            Transport.send tr ~src ~dst (string_of_int i))
          links;
        (* Space rounds past the latency so every slot is back in the
           free list before the next burst. *)
        Xsim.Engine.sleep eng 20
      done);
  Engine.run eng;
  checki "all delivered" (64 * rounds) !received;
  let st = Transport.arena_stats tr in
  checki "acquires = sends" (64 * rounds) st.Arena.acquires;
  checkb
    (Printf.sprintf "slots (%d) bounded by one burst" st.Arena.slots)
    true
    (st.Arena.slots <= 64)

(* ------------------------------------------------------------------ *)
(* 3. End-to-end byte-identity: Flat vs Structural (tentpole property) *)

let spec_of ~codec ~seed ~fault =
  let crash = fault land 1 = 1 in
  let noise = fault land 2 = 2 in
  let lossy = fault land 4 = 4 in
  let paxos = fault land 8 = 8 in
  {
    Runner.default_spec with
    seed = seed + 1;
    clients = 2;
    inflight = 2;
    crashes = (if crash then [ (400 + (seed mod 300), 0) ] else []);
    noise = (if noise then Some (0.1, 150, 5_000) else None);
    time_limit = 3_000_000;
    quiesce_grace = 20_000;
    service_config =
      {
        Service.default_config with
        consensus_service_time = 30;
        substrate =
          (if paxos then `Paxos (Xnet.Latency.Uniform (10, 40))
           else `Register 25);
        faults =
          (if lossy then
             Xnet.Fault.make ~default:(Xnet.Fault.link ~drop:0.15 ()) ()
           else Xnet.Fault.none);
        channel =
          (if lossy then Service.Arq Xnet.Reliable.default_arq
           else Service.Assumed_reliable);
        (* Batching on, so the Pval.Batch / Batch_outcome codecs carry
           real consensus traffic, not just the unit tests' samples. *)
        batching = Some { Xreplication.Batcher.size = 4; tick = 100; depth = 2 };
        codec;
      };
  }

let verdict ~codec ~seed ~fault =
  let lane_ctr = ref 0 in
  let r, _ =
    Runner.run
      ~spec:(spec_of ~codec ~seed ~fault)
      ~setup:Workloads.setup_all
      ~workload:(fun _srv client submit ->
        let lane = !lane_ctr in
        incr lane_ctr;
        for i = 0 to 2 do
          let key = Printf.sprintf "lane%d.k%d" lane i in
          ignore
            (submit
               (Workloads.kv_put client ~key
                  ~value:(Value.int ((100 * lane) + i))));
          ignore (submit (Workloads.kv_get client ~key))
        done)
      ()
  in
  ( Runner.ok r,
    Runner.failures r,
    List.sort compare
      (List.map
         (fun s ->
           ( Value.to_string s.Runner.req.Xsm.Request.input,
             Value.to_string s.Runner.reply ))
         r.Runner.submissions) )

let pool1 = lazy (Xpar.Pool.create ~domains:1 ())
let pool4 = lazy (Xpar.Pool.create ~domains:4 ())

let prop_flat_identity =
  QCheck.Test.make
    ~name:"flat codec: verdicts and replies equal structural (JOBS=1/4)"
    ~count:4
    QCheck.(pair (int_bound 10_000) (int_bound 15))
    (fun (seed, fault) ->
      let run_pair pool =
        Xpar.Pool.map pool
          (fun codec -> verdict ~codec ~seed ~fault)
          [ Service.Structural; Service.Flat ]
      in
      let jobs1 = run_pair (Lazy.force pool1) in
      let jobs4 = run_pair (Lazy.force pool4) in
      (match jobs1 with
      | [ (ok_s, fails_s, _); _ ] ->
          if not ok_s then
            QCheck.Test.fail_reportf
              "seed=%d fault=%d: structural baseline not ok:\n%s" seed fault
              (String.concat "\n" fails_s)
      | _ -> assert false);
      (match jobs1 with
      | [ structural; flat ] ->
          if structural <> flat then
            QCheck.Test.fail_reportf
              "seed=%d fault=%d: flat verdicts differ from structural" seed
              fault
      | _ -> assert false);
      if jobs1 <> jobs4 then
        QCheck.Test.fail_reportf
          "seed=%d fault=%d: JOBS=1 and JOBS=4 disagree" seed fault;
      true)

(* ------------------------------------------------------------------ *)
(* Bench_compare missing-path handling (satellite 2) *)

let diff_to_string ?threshold a b =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let summary =
    Bench_compare.diff ~ppf ?threshold ~name_a:"a" ~name_b:"b"
      (Bench_compare.Json.parse a) (Bench_compare.Json.parse b)
  in
  Format.pp_print_flush ppf ();
  (summary, Buffer.contents buf)

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec at i = i + ls <= ln && (String.sub s i ls = sub || at (i + 1)) in
  at 0

let test_compare_missing_paths () =
  let summary, out =
    diff_to_string {|{"kept":1,"gone":5}|} {|{"kept":1,"fresh":7}|}
  in
  checki "compared" 1 summary.Bench_compare.compared;
  checki "only in a" 1 summary.Bench_compare.only_a;
  checki "only in b" 1 summary.Bench_compare.only_b;
  checkb "gone renders n/a" true (contains out "gone");
  checkb "n/a marker present" true (contains out "n/a")

let test_compare_zero_baseline () =
  (* 0 -> nonzero used to mean an infinite delta; it must render, not
     raise, and count as shown. *)
  let summary, _ = diff_to_string {|{"x":0}|} {|{"x":3}|} in
  checki "compared" 1 summary.Bench_compare.compared;
  checki "shown" 1 summary.Bench_compare.shown

let test_compare_regression_direction () =
  let summary, out =
    diff_to_string {|{"req_per_s":100,"latency_p95":10}|}
      {|{"req_per_s":50,"latency_p95":20}|}
  in
  checki "both regress" 2 summary.Bench_compare.regressions;
  checkb "marked" true (contains out "REGRESSION")

let test_compare_msgs_per_request_direction () =
  (* Message-economy metrics are lower-better: a rising msgs/request (or
     lease miss/expiry count) is a regression, a falling one an
     improvement — not unjudged noise.  Names match on whole tokens: a
     [per_s] rate is higher-better although it ends in [_s], and the
     "ok" inside "lookups" judges nothing. *)
  List.iter
    (fun (leaf, dir) ->
      checkb (leaf ^ " direction") true
        (Bench_compare.metric_direction ("e16_lease.rows[0]." ^ leaf) = dir))
    [
      ("msgs_per_request", `Lower_better);
      ("messages_per_request", `Lower_better);
      ("msgs_per_req", `Lower_better);
      ("lease_misses", `Lower_better);
      ("lease_expiries", `Lower_better);
      ("flat_schedules_per_s", `Higher_better);
      ("structural_schedules_per_s", `Higher_better);
      ("router_lookups_per_run", `Unjudged);
    ];
  let summary, out =
    diff_to_string {|{"msgs_per_request":2.0}|} {|{"msgs_per_request":4.0}|}
  in
  checki "increase regresses" 1 summary.Bench_compare.regressions;
  checkb "marked" true (contains out "REGRESSION");
  let summary, out =
    diff_to_string {|{"msgs_per_request":4.0}|} {|{"msgs_per_request":2.0}|}
  in
  checki "decrease is not a regression" 0 summary.Bench_compare.regressions;
  checkb "improved" true (contains out "improved")

let test_compare_parse_error () =
  checkb "trailing garbage rejected" true
    (try
       ignore (Bench_compare.Json.parse "{} junk");
       false
     with Bench_compare.Json.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Schedule codec token (tentpole: recorded in the schedule line) *)

let test_schedule_codec_roundtrip () =
  let flat = Schedule.make ~codec:Service.Flat ~seed:42 () in
  let line = Schedule.to_string flat in
  checkb "flat token present" true (contains line "codec=flat");
  checkb "round-trips" true (Schedule.of_string line = Some flat);
  let structural = Schedule.make ~seed:42 () in
  let sline = Schedule.to_string structural in
  checkb "structural token" true (contains sline "codec=-");
  checkb "structural round-trips" true
    (Schedule.of_string sline = Some structural)

let test_schedule_codec_backcompat () =
  (* A line written before the codec field existed has no codec= token;
     it must parse as Structural. *)
  let s = Schedule.make ~seed:7 () in
  let line = Schedule.to_string s in
  let old_line =
    (* Drop the " codec=-" token by hand (no [Str] in the test deps). *)
    let tok = " codec=-" in
    match
      let ls = String.length tok and ln = String.length line in
      let rec at i =
        if i + ls > ln then None
        else if String.sub line i ls = tok then Some i
        else at (i + 1)
      in
      at 0
    with
    | Some i ->
        String.sub line 0 i
        ^ String.sub line
            (i + String.length tok)
            (String.length line - i - String.length tok)
    | None -> Alcotest.fail "codec=- token not found in schedule line"
  in
  checkb "token removed" false (contains old_line "codec=");
  match Schedule.of_string old_line with
  | Some parsed ->
      checkb "old line parses to the same schedule" true (parsed = s)
  | None -> Alcotest.fail "pre-codec line no longer parses"

let test_schedule_lease_tokens () =
  (* lease=/sub= tokens append only when non-default, so pre-lease lines
     (and their byte-identical replays) are untouched. *)
  let leased = Schedule.make ~lease:true ~substrate:"seqlog" ~seed:5 () in
  let line = Schedule.to_string leased in
  checkb "lease token" true (contains line "lease=1");
  checkb "substrate token" true (contains line "sub=seqlog");
  checkb "round-trips" true (Schedule.of_string line = Some leased);
  let plain = Schedule.make ~seed:5 () in
  let pline = Schedule.to_string plain in
  checkb "no lease token by default" false (contains pline "lease=");
  checkb "no sub token by default" false (contains pline "sub=");
  checkb "pre-lease line parses unleased" true
    (Schedule.of_string pline = Some plain);
  checkb "json lease tagged" true
    (contains (Schedule.to_json leased) {|"lease":true|});
  checkb "json substrate tagged" true
    (contains (Schedule.to_json leased) {|"substrate":"seqlog"|});
  checkb "plain json untagged" false (contains (Schedule.to_json plain) "lease")

let test_schedule_codec_json () =
  let structural = Schedule.make ~seed:1 () in
  checkb "structural json unchanged" false
    (contains (Schedule.to_json structural) "codec");
  let flat = Schedule.make ~codec:Service.Flat ~seed:1 () in
  checkb "flat json tagged" true
    (contains (Schedule.to_json flat) {|"codec":"flat"|})

(* ------------------------------------------------------------------ *)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "xcodec"
    [
      ("codecs", codec_suites);
      ( "primitives",
        [
          Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
          Alcotest.test_case "overlong varint" `Quick
            test_overlong_varint_rejected;
          Alcotest.test_case "string length precheck" `Quick
            test_string_length_validated_before_alloc;
          Alcotest.test_case "negative uint" `Quick
            test_write_uint_negative_rejected;
        ] );
      ( "arena",
        [
          Alcotest.test_case "slot reuse" `Quick test_arena_reuse;
          Alcotest.test_case "retain/release" `Quick test_arena_retain;
        ] );
      ( "flat transport",
        [
          Alcotest.test_case "delivers decoded payload" `Quick
            test_flat_transport_delivers;
          Alcotest.test_case "steady-state slot reuse" `Quick
            test_flat_transport_slot_reuse;
          Alcotest.test_case "duplicate shares encoding" `Quick
            test_flat_transport_duplicate_shares_slot;
        ] );
      ( "link hash",
        [
          Alcotest.test_case "collision sanity" `Quick
            test_link_hash_collisions;
          Alcotest.test_case "64-shard population collision-free" `Quick
            test_link_hash_shard_scale;
          Alcotest.test_case "64-shard shared-wire slot reuse" `Quick
            test_flat_shard_scale_slot_reuse;
        ] );
      ("identity", [ qcheck prop_flat_identity ]);
      ( "bench compare",
        [
          Alcotest.test_case "missing paths render n/a" `Quick
            test_compare_missing_paths;
          Alcotest.test_case "zero baseline" `Quick test_compare_zero_baseline;
          Alcotest.test_case "regression direction" `Quick
            test_compare_regression_direction;
          Alcotest.test_case "msgs/request direction" `Quick
            test_compare_msgs_per_request_direction;
          Alcotest.test_case "parse error" `Quick test_compare_parse_error;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "codec token round-trip" `Quick
            test_schedule_codec_roundtrip;
          Alcotest.test_case "pre-codec line back-compat" `Quick
            test_schedule_codec_backcompat;
          Alcotest.test_case "lease/substrate tokens" `Quick
            test_schedule_lease_tokens;
          Alcotest.test_case "json tagging" `Quick test_schedule_codec_json;
        ] );
    ]
