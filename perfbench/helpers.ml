(* Pure helpers of the benchmark: order statistics, the tail-percentile
   rule, the failover interval, stack-frame attribution, and JSON text.
   Everything here is deterministic and covered by selftest.ml. *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentiles with the rank in integers: [permille] is
   the percentile in tenths of a percent (990 = p99), so ranks never
   suffer float rounding.  [rank n permille] is the 1-based rank. *)
let rank n permille = max 1 (min n (((permille * n) + 999) / 1000))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile_permille permille xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank n permille - 1)

let percentile p xs = percentile_permille (int_of_float (Float.round (p *. 10.0))) xs

(* The tail-percentile rule: report the highest percentile of [ladder]
   that still has at least [beyond] samples above its rank, so a tail
   figure is never read off a handful of points.  Returns (percentile,
   value, sample count); [None] when even the median lacks support. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let tail_percentile ?(beyond = 10) xs =
  let n = List.length xs in
  List.find_map
    (fun pm ->
      if n > 0 && n - rank n pm >= beyond then
        Some (float_of_int pm /. 10.0, percentile_permille pm xs, n)
      else None)
    ladder

(* Failover time on a shard: each of its closed-loop lanes has a reply
   timeline (virtual times); a lane's reply-free interval containing the
   crash runs from its last reply at or before the crash (0 when there is
   none) to its first reply after it.  The failover is the longest such
   interval over the lanes.  [None] when some lane never replies after
   the crash — the shard never failed over. *)
let lane_gap ~crash times =
  let before = List.filter (fun t -> t <= crash) times in
  match List.filter (fun t -> t > crash) times with
  | [] -> None
  | after ->
      Some (List.fold_left min max_int after - List.fold_left max 0 before)

let failover_ticks ~crash lanes =
  List.fold_left
    (fun acc times ->
      match (acc, lane_gap ~crash times) with
      | Some a, Some g -> Some (max a g)
      | _ -> None)
    (Some 0) lanes

(* Stack-frame attribution for the SIGPROF sampler.  A frame's file is
   the source path the compiler recorded, relative to the workspace root
   (["lib/replication/replica.ml"]).  A sample goes to the innermost
   frame under [lib/<layer>/]; stdlib and other library frames pass the
   sample on to their nearest caller; a frame of the benchmark itself, or
   a stack with no [lib/] frame at all, counts as [other]. *)
let layers =
  [
    "sim"; "net"; "detect"; "consensus"; "replication"; "sm"; "core"; "shard";
    "workload"; "explore";
  ]

let lib_frame file =
  match String.split_on_char '/' file with
  | "lib" :: layer :: rest when rest <> [] && List.mem layer layers ->
      let base = List.nth rest (List.length rest - 1) in
      Some (layer, Filename.remove_extension base)
  | _ -> None

let own_frame file =
  String.length file >= 10 && String.sub file 0 10 = "perfbench/"

(* [frames] innermost first; returns (layer, module) with module [""]
   for [other]. *)
let attribute frames =
  let rec go = function
    | [] -> ("other", "")
    | f :: rest -> (
        match lib_frame f with
        | Some lm -> lm
        | None -> if own_frame f then ("other", "") else go rest)
  in
  go frames

(* JSON text, enough for flat result records. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"
