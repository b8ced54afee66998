(** Diffing of two bench JSON reports ([bench/main.exe --json]).

    This is the engine behind [xrepl bench --compare]: parse both
    reports with a minimal stdlib-only JSON reader, flatten each to
    [(dotted path, number)] rows in document order, and render a table
    of the deltas that exceed a noise threshold, marking regressions by
    metric direction.  Paths present in only one report render with
    [n/a] in the missing column instead of being dropped, so a metric
    that disappears between two runs is visible in the diff. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse : string -> t
  (** Objects, arrays, strings, numbers, booleans, null; no unicode
      unescaping (the reports are ASCII).  Raises {!Parse_error} on
      malformed input, including trailing garbage. *)

  val flatten : t -> (string * float) list
  (** Numeric leaves as [(dotted path, value)] rows, depth-first in
      document order.  Booleans flatten to 0/1 so flag flips show up;
      strings and nulls are skipped. *)
end

val metric_direction : string -> [ `Higher_better | `Lower_better | `Unjudged ]
(** Is a larger value of this metric better, worse, or unjudged?
    Matched on the [_]-separated tokens of the path's leaf name,
    schema-free; a leaf ending in [per_s] is a rate (higher-better). *)

type summary = {
  compared : int;  (** paths present in both reports *)
  shown : int;  (** deltas at or over the threshold *)
  regressions : int;  (** shown deltas in the wrong direction *)
  only_a : int;  (** paths present only in the first report *)
  only_b : int;  (** paths present only in the second report *)
}

val diff :
  ppf:Format.formatter ->
  ?threshold:float ->
  name_a:string ->
  name_b:string ->
  Json.t ->
  Json.t ->
  summary
(** Render the comparison table for two parsed reports onto [ppf] and
    return the counts.  [threshold] (default 2.0) is the relative
    change in percent below which a delta is considered noise and not
    shown.  One-sided paths always print, with [n/a] in the column of
    the report that lacks them. *)
