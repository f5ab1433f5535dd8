(** The fiber machine's cost counters.

    The machine reports its costs (instructions executed, overflow
    checks, stack copies, mallocs, cache hits, fiber switches) through a
    counter set so that experiments can diff configurations.  Every
    counter the machine keeps is a constructor of {!name}, so a
    misspelt counter is a compile error and a bump is one array
    write. *)

type name =
  | Addr_index_probe
  | Call
  | Callback
  | Check_elided
  | Chunk_commit
  | Chunk_cow
  | Chunk_pool_hit
  | Cont_copy
  | Cont_share
  | Cow_words
  | Eff_tbl_probe
  | Extcall
  | Fiber_alloc
  | Fiber_free
  | Fiber_return
  | Handle
  | Instructions
  | Malloc
  | Ops
  | Overflow_check
  | Page_commit
  | Page_fault
  | Perform
  | Poptrap
  | Pushtrap
  | Raise
  | Reperform
  | Resume
  | Ret
  | Segment_check
  | Stack_cache_hit
  | Stack_cache_lookup
  | Stack_cache_miss
  | Stack_grow
  | Switch
  | Words_copied

val all : name list

val to_string : name -> string
(** The reported name: the constructor in lower case ([Words_copied] is
    ["words_copied"]). *)

type t

val create : unit -> t
(** Every counter at 0. *)

val index : name -> int
(** The slot of a counter in {!cells}. *)

val cells : t -> int array
(** The counters' own storage: slot [index n] holds [value t n].  For a
    dispatch loop that bumps a counter without a call (the compiler,
    without flambda, does not inline [add] at its default threshold);
    everything else should use [add]. *)

val incr : t -> name -> unit

val add : t -> name -> int -> unit

val value : t -> name -> int

val get : t -> string -> int
(** [get t s] is the value of the counter whose {!to_string} is [s].
    @raise Invalid_argument naming [s] when it names no counter. *)

val to_list : t -> (string * int) list
(** The nonzero counters, sorted by name. *)

val diff : t -> t -> (string * int) list
(** [diff a b] is, for each counter, [value a n - value b n], omitting
    zero entries; sorted by name. *)
