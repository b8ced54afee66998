(* Exploration strategies.  A strategy is a recipe for which schedules to
   run; the explorer interprets it.  Three families, per the classic
   model-checking toolbox:

   - [Random_walk]: replayable random scheduling.  Each trial runs with a
     fresh engine seed and a chooser that defers the front of the ready
     window with probability [p_defer]; the picks it makes are recorded,
     so the trial's schedule replays byte-identically without the RNG.

   - [Delay_dfs]: delay-bounded systematic search.  Starting from the
     default schedule, extend schedules with one extra deferral at a
     time — at choice point [step], run ready entry [k] instead of the
     front — up to [max_delays] deferrals per schedule and [horizon]
     choice points deep.  Small delay bounds cover a disproportionate
     share of real concurrency bugs (the delay-bounding literature's
     observation, which x-ability's own failure modes match: one
     mistimed takeover or duplicate delivery suffices).

   - [Fault_enum]: targeted fault-schedule enumeration.  No scheduling
     shifts; instead sweep crash injection times across replicas, with
     optional false-suspicion noise.  This searches the dimension the
     paper's protocol is actually defensive about: which instant the
     owner dies.

   - [Net_fault]: network fault-plane enumeration.  Sweep message-loss
     levels (with optional duplication and jitter) and timed partition
     windows across candidate minority groups, several engine seeds per
     fault point.  This probes the channel dimension: the paper assumes
     reliable links, so the protocol must stay x-able when that
     assumption is discharged by the ARQ layer instead.

   - [Batch_boundary]: adversity at the edges of the batched hot path.
     With batching/pipelining on and a concurrent workload, enumerate
     owner crashes at epoch-tick boundaries (mid-batch and just before /
     after a flush), false-suspicion bursts ending near those boundaries
     (a cleaner deciding a slot's outcome against a live owner — the
     partial-batch decision race), and single deferred choice points
     early in the run (reordering pipelined batch fibers).  This targets
     exactly the windows the batch log opens: between slot claim and
     outcome, and between overlapping in-flight batches.

   - [Lease_edge]: adversity at the boundaries of the leased-owner fast
     path.  With the lease enabled (and swept across every consensus
     substrate), enumerate owner crashes at lease-grant, renewal and
     expiry instants (and their immediate neighbours), false-suspicion
     bursts ending just after those instants (a challenger breaking a
     live owner's lease — the fence-epoch race), and partitions severing
     the holder across a renewal or expiry boundary (the holder keeps
     fast-deciding on a lease the rest of the group thinks lapsed).
     This targets exactly the windows the lease opens: between a grant
     and its first renewal, across each renewal, and at expiry.

   - [Cross_shard]: adversity against the sharded deployment's weak
     spots.  Run the scenario on an N-way sharded deployment under a
     cross-shard workload and enumerate, per engine seed: owner crashes
     in every shard at instants chosen to land mid-cross-shard-request
     (between a sub-request landing on one shard and its sibling landing
     on another), and router-directory partitions (one shard's entry
     unavailable for a window, stalling routed traffic).  The section-4
     composition theorem says the whole history is x-able iff each
     shard's projection is; this strategy attacks exactly the seams that
     theorem stitches. *)

type t =
  | Random_walk of { trials : int; p_defer : float; window : int }
  | Delay_dfs of { budget : int; max_delays : int; horizon : int; window : int }
  | Fault_enum of {
      times : int list;
      replicas : int list;
      noise : (float * int * int) option;
      pair_crashes : bool;  (** also try all ordered pairs of crashes *)
    }
  | Net_fault of {
      seeds : int;  (** engine seeds per fault point *)
      loss_levels : float list;  (** drop probabilities to sweep *)
      dup : float;  (** duplication probability at every point *)
      jitter : int;  (** reorder jitter at every point *)
      partition_windows : (int * int) list;  (** (start, heal) to try *)
      groups : int list list;  (** candidate severed replica groups *)
    }
  | Batch_boundary of {
      seeds : int;  (** engine seeds per boundary plan *)
      batch : int;  (** batch size under test *)
      pipeline : int;  (** pipeline depth under test *)
      tick : int;  (** epoch tick — defines the boundary instants *)
    }
  | Cross_shard of {
      seeds : int;  (** engine seeds per fault plan *)
      shards : int;  (** shard count of the deployment under test *)
      group_size : int;  (** replicas per shard (flat crash indexing) *)
      crash_times : int list;  (** candidate owner-crash instants *)
      block_windows : (int * int) list;  (** router-partition windows *)
    }
  | Lease_edge of {
      seeds : int;  (** engine seeds per fault plan *)
      substrates : string list;  (** substrate names swept, lease on *)
      renew_interval : int;  (** lease renew period — boundary instants *)
      duration : int;  (** lease duration — the expiry boundary *)
    }

let random_walk ?(trials = 100) ?(p_defer = 0.15) ?(window = 4) () =
  Random_walk { trials; p_defer; window }

let delay_dfs ?(budget = 200) ?(max_delays = 2) ?(horizon = 64) ?(window = 4) ()
    =
  Delay_dfs { budget; max_delays; horizon; window }

let fault_enum ?noise ?(pair_crashes = false) ~times ~replicas () =
  Fault_enum { times; replicas; noise; pair_crashes }

let net_fault ?(dup = 0.0) ?(jitter = 0) ?(partition_windows = [])
    ?(groups = [ [ 0 ] ]) ?(seeds = 10) ~loss_levels () =
  Net_fault { seeds; loss_levels; dup; jitter; partition_windows; groups }

let batch_boundary ?(batch = 16) ?(pipeline = 4) ?(tick = 100) ?(seeds = 10) ()
    =
  Batch_boundary { seeds; batch; pipeline; tick }

(* Crash instants default to the window cross-shard sub-requests are in
   flight during (router lookup latency + consensus rounds put the first
   cross fan-outs in the low hundreds of virtual-time units); block
   windows open at t=0 so the very first routed request stalls, and heal
   early enough that the run still completes. *)
let cross_shard ?(shards = 4) ?(group_size = 3)
    ?(crash_times = [ 60; 80; 120; 150; 220; 300; 400; 550; 700 ])
    ?(block_windows = [ (0, 2_000); (100, 3_000); (500, 4_000); (1_000, 5_000) ])
    ?(seeds = 10) () =
  Cross_shard { seeds; shards; group_size; crash_times; block_windows }

(* 27 schedules per (seed, substrate): a fault-free leased baseline, an
   owner crash at each of 11 boundary instants (grant, first/second
   renewal, expiry, each ±ε), a suspicion burst ending just past each
   instant, and 4 holder partitions straddling the boundaries.  The
   defaults give 27 × 3 substrates × 7 seeds = 567 schedules. *)
let lease_edge ?(substrates = Xreplication.Coord.substrate_names)
    ?(renew_interval = 200) ?(duration = 600) ?(seeds = 7) () =
  Lease_edge { seeds; substrates; renew_interval; duration }

let name = function
  | Random_walk _ -> "random-walk"
  | Delay_dfs _ -> "delay-dfs"
  | Fault_enum _ -> "fault-enum"
  | Net_fault _ -> "net-fault"
  | Batch_boundary _ -> "batch-boundary"
  | Cross_shard _ -> "cross-shard"
  | Lease_edge _ -> "lease-edge"

let describe = function
  | Random_walk { trials; p_defer; window } ->
      Printf.sprintf "random-walk trials=%d p_defer=%g window=%d" trials
        p_defer window
  | Delay_dfs { budget; max_delays; horizon; window } ->
      Printf.sprintf "delay-dfs budget=%d max_delays=%d horizon=%d window=%d"
        budget max_delays horizon window
  | Fault_enum { times; replicas; noise; pair_crashes } ->
      Printf.sprintf "fault-enum times=%d replicas=%d noise=%b pairs=%b"
        (List.length times) (List.length replicas) (noise <> None) pair_crashes
  | Net_fault { seeds; loss_levels; dup; jitter; partition_windows; groups } ->
      Printf.sprintf
        "net-fault losses=%d dup=%g jitter=%d windows=%d groups=%d seeds=%d"
        (List.length loss_levels) dup jitter
        (List.length partition_windows)
        (List.length groups) seeds
  | Batch_boundary { seeds; batch; pipeline; tick } ->
      Printf.sprintf "batch-boundary batch=%d pipeline=%d tick=%d seeds=%d"
        batch pipeline tick seeds
  | Cross_shard { seeds; shards; group_size; crash_times; block_windows } ->
      Printf.sprintf
        "cross-shard shards=%d group=%d crash_times=%d windows=%d seeds=%d"
        shards group_size (List.length crash_times)
        (List.length block_windows)
        seeds
  | Lease_edge { seeds; substrates; renew_interval; duration } ->
      Printf.sprintf "lease-edge substrates=%d renew=%d duration=%d seeds=%d"
        (List.length substrates) renew_interval duration seeds
