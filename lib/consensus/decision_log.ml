type t = { mutable rev : string list; mutable len : int }
(* [rev] holds the entries most recent first, so the suffix past a
   cursor is a prefix of [rev]. *)

let create () = { rev = []; len = 0 }

let append t inst =
  t.rev <- inst :: t.rev;
  t.len <- t.len + 1

let length t = t.len

let since t ~cursor =
  let rec take n l acc =
    match l with
    | x :: tl when n > 0 -> take (n - 1) tl (x :: acc)
    | _ -> acc
  in
  (take (t.len - cursor) t.rev [], t.len)
