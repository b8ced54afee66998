(** An append-only log of decided instance ids, read through cursors.

    Each substrate appends an instance id exactly once, at the point where
    the decision becomes known (to the group, or to one member).  A reader
    keeps an integer cursor — the log length at its previous read — and
    {!since} hands back only what was appended after it, so a periodic
    reader pays for new decisions, never for the whole history.  This is
    the commit-index discipline of VR/Zab replicas ("Vive la Différence",
    PAPERS.md): learn from an ordered log, never rescan it. *)

type t

val create : unit -> t

val append : t -> string -> unit

val length : t -> int
(** Number of entries appended so far. *)

val since : t -> cursor:int -> string list * int
(** [since t ~cursor] is the entries appended after the first [cursor]
    ones, oldest first, paired with the cursor for the next read
    ({!length}).  Cost is proportional to the number of entries returned.
    A cursor of [0] reads the whole log. *)
