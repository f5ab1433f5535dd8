(** Cache of recently freed fiber stacks (§5.2).

    Fibers are malloc-allocated and freed when the handled computation
    returns; a cache of freed stacks, bucketed by size, turns most
    allocations into a pop.  The machine's [stack_cache_hit] versus
    [stack_cache_miss] counters quantify the benefit (one of the
    DESIGN.md ablations).

    Every operation is O(1): buckets carry their own element count (no
    list traversal on [put]) and the cache tracks its aggregate size, so
    both the per-bucket bound and the total-words bound are constant-time
    admission checks. *)

type t

val create : ?max_per_bucket:int -> ?max_total_words:int -> unit -> t
(** [max_per_bucket] (default 64) bounds retained stacks per size;
    [0] degrades the cache to a pass-through that retains nothing.
    [max_total_words] (default unlimited) bounds the aggregate retained
    words across all buckets. *)

val put : t -> size:int -> Segment.t -> unit
(** Offer a freed segment to the cache; dropped if its bucket is full or
    retaining it would exceed [max_total_words].  O(1). *)

val take : t -> size:int -> Segment.t option
(** A cached segment of exactly [size] words, if any, zeroed before it
    is handed out so no words from its previous life (frames, trap
    records, handler_info) survive into the new fiber; a segment parked
    without its words ({!Segment.drop_words}) gets fresh ones.  O(size)
    on a hit for the zeroing pass, O(1) otherwise. *)

val iter : t -> (Segment.t -> unit) -> unit
(** Visit every cached segment, bucket by bucket in the order the
    buckets were first used; used by the {!Machine} auditor to assert
    that no retained segment is aliased by a live fiber.  Allocates
    nothing. *)

val population : t -> int
(** Number of segments currently held.  O(1). *)

val total_words : t -> int
(** Aggregate words currently retained.  O(1). *)

val version : t -> int
(** [put], [take] and [clear] calls so far, including offers dropped
    and takes that missed; never reset.  The {!Machine} auditor counts
    the calls the machine makes, so a move it did not make tells it that
    other code changed the cache. *)

(** {2 Per-instance statistics}

    Lifetime event counts owned by the cache instance (not by any
    machine), so they can be read, windowed and reset independently of
    the frozen machine counters.  A cache shared by several experiment
    runs in one process must be read through [scoped_stats] (or reset
    between runs): the counters otherwise accumulate across runs. *)

type stats = {
  lookups : int;  (** [take] calls *)
  hits : int;  (** takes that returned a segment *)
  misses : int;  (** takes that found the bucket empty *)
  puts : int;  (** offers the cache retained *)
  rejected : int;  (** offers dropped by a capacity bound *)
}

val zero_stats : stats

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the statistics (the cached segments are untouched). *)

val diff_stats : stats -> stats -> stats
(** Componentwise [a - b]. *)

val scoped_stats : t -> (unit -> 'a) -> 'a * stats
(** Run the thunk and return the statistics delta it produced — the
    seam that keeps back-to-back experiments' stats independent. *)

val clear : t -> unit
