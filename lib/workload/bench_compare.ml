(* Bench-report diffing: the engine behind [xrepl bench --compare].
   Everything renders onto a caller-supplied formatter so tests can
   capture the table without touching stdout. *)

(* A minimal JSON reader (stdlib only), just enough for the bench
   harness's own output: objects, arrays, strings, numbers, booleans,
   null.  No unicode unescaping — the reports are ASCII. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ lit)
    in
    let string_body () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' ->
                Buffer.add_char b '\n';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char b '\t';
                advance ();
                go ()
            | Some 'r' ->
                Buffer.add_char b '\r';
                advance ();
                go ()
            | Some 'u' ->
                (* Keep the escape verbatim; paths never contain these. *)
                Buffer.add_string b "\\u";
                advance ();
                go ()
            | Some c ->
                Buffer.add_char b c;
                advance ();
                go ()
            | None -> fail "unterminated escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (items [])
          end
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "empty input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  (* Flatten to (path, number) rows, depth-first in document order.
     Booleans flatten to 0/1 so "all_ok" flips show up in the diff. *)
  let flatten (j : t) : (string * float) list =
    let rows = ref [] in
    let rec go path = function
      | Null | Str _ -> ()
      | Bool b -> rows := (path, if b then 1.0 else 0.0) :: !rows
      | Num f -> rows := (path, f) :: !rows
      | List xs ->
          List.iteri (fun i x -> go (Printf.sprintf "%s[%d]" path i) x) xs
      | Obj fields ->
          List.iter
            (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
            fields
    in
    go "" j;
    List.rev !rows
end

(* Is a larger value of this metric better, worse, or unjudged?  Matched
   on the [_]-separated tokens of the leaf name so the table can mark
   regressions without a schema: [has "msgs_per_req"] asks for those
   three tokens in a row, so "lookups" never matches "ok" and
   "schedules_per_s" is a rate, not a duration. *)
let metric_direction path =
  let leaf =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let tokens = String.split_on_char '_' leaf in
  let has pat =
    let rec prefix p l =
      match (p, l) with
      | [], _ -> true
      | x :: p', y :: l' -> String.equal x y && prefix p' l'
      | _ :: _, [] -> false
    in
    let p = String.split_on_char '_' pat in
    let rec at l = prefix p l || match l with [] -> false | _ :: l' -> at l' in
    at tokens
  in
  let per_s =
    match List.rev tokens with "s" :: "per" :: _ -> true | _ -> false
  in
  if
    per_s || has "req_per_s" || has "speedup" || has "ok" || has "identical"
    || has "explored"
  then `Higher_better
  else if
    has "latency" || has "ns_per_run" || has "violating"
    || has "consensus_per_request"
    || has "wire_messages_per_request"
    || has "msgs_per_request" || has "messages_per_request"
    || has "msgs_per_req" || has "lease_misses" || has "lease_expiries"
    || has "retransmit" || has "retransmits" || has "drops"
    || has "minor_words" || has "visited" || has "s"
  then `Lower_better
  else `Unjudged

type summary = {
  compared : int;
  shown : int;
  regressions : int;
  only_a : int;
  only_b : int;
}

let diff ~ppf ?(threshold = 2.0) ~name_a ~name_b ja jb =
  let fa = Json.flatten ja and fb = Json.flatten jb in
  let tb = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) fb;
  let sa = Hashtbl.create 256 in
  List.iter (fun (k, _) -> Hashtbl.replace sa k ()) fa;
  let regressions = ref 0 and shown = ref 0 and compared = ref 0 in
  let only_a = ref 0 and only_b = ref 0 in
  Format.fprintf ppf "%-58s %12s %12s %9s@." "metric" name_a name_b "delta";
  let show path va vb =
    let delta_pct =
      if va = 0.0 then if vb = 0.0 then 0.0 else Float.infinity
      else (vb -. va) /. Float.abs va *. 100.0
    in
    if Float.abs delta_pct >= threshold then begin
      incr shown;
      let verdict =
        match metric_direction path with
        | `Higher_better when delta_pct < 0.0 -> " REGRESSION"
        | `Lower_better when delta_pct > 0.0 -> " REGRESSION"
        | `Higher_better | `Lower_better -> " improved"
        | `Unjudged -> ""
      in
      if verdict = " REGRESSION" then incr regressions;
      Format.fprintf ppf "%-58s %12.4g %12.4g %+8.1f%%%s@." path va vb
        delta_pct verdict
    end
  in
  (* A path on one side only is rendered with [n/a] in the missing
     column rather than dropped: a metric vanishing between two runs
     (renamed, or its whole experiment skipped) is itself a finding. *)
  List.iter
    (fun (path, va) ->
      match Hashtbl.find_opt tb path with
      | Some vb ->
          incr compared;
          show path va vb
      | None ->
          incr only_a;
          Format.fprintf ppf "%-58s %12.4g %12s@." path va "n/a")
    fa;
  List.iter
    (fun (path, vb) ->
      if not (Hashtbl.mem sa path) then begin
        incr only_b;
        Format.fprintf ppf "%-58s %12s %12.4g@." path "n/a" vb
      end)
    fb;
  Format.fprintf ppf
    "@.%d numeric paths compared, %d over the %.1f%% threshold, %d \
     regressions@."
    !compared !shown threshold !regressions;
  {
    compared = !compared;
    shown = !shown;
    regressions = !regressions;
    only_a = !only_a;
    only_b = !only_b;
  }
