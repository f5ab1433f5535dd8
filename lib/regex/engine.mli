(** High-level regex operations.

    These are the operations the regex-redux benchmark needs: counting
    matches of alternation patterns and sequence-rewriting via
    replacement.  Matching is leftmost-longest over non-overlapping
    occurrences. *)

type t

val of_string : string -> t
(** Compile a pattern.  @raise Invalid_argument on a malformed pattern. *)

val is_match : t -> string -> bool
(** Does the pattern match anywhere in the subject? *)

val find : t -> ?start:int -> string -> (int * int) option
(** Leftmost match at or after [start] (default 0), as an
    [(offset, length)] pair with the longest length at that offset. *)

val count : t -> string -> int
(** Number of non-overlapping leftmost-longest matches.  Empty-width
    matches advance by one byte so counting always terminates. *)

val replace_all : t -> by:string -> string -> string
(** Replace every non-overlapping match with [by]. *)

val split_on : t -> string -> string list
(** Subject fragments between matches (no empty trailing fragment is
    dropped; a subject with no match yields a singleton list). *)
