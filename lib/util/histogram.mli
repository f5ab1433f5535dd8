(** HDR-style latency histogram.

    The paper's web-server experiment (Fig 6b) records latency percentiles
    with wrk2, which uses an HdrHistogram: fixed-precision log-linear
    buckets that record values in constant time and answer percentile
    queries with bounded relative error.  This module is our equivalent.

    Values are non-negative integers (we use nanoseconds of simulated
    time), recorded to three significant figures: any recorded value is
    recovered to within 0.1 %. *)

type t

val create : max_value:int -> unit -> t
(** [create ~max_value ()] can record values in [\[0, max_value\]].
    @raise Invalid_argument if [max_value < 2]. *)

val record : t -> int -> unit
(** Record one value.  Values above [max_value] are clamped to it and
    counted in [saturated].  @raise Invalid_argument on negatives. *)

val count : t -> int
(** Total number of recorded values. *)

val saturated : t -> int
(** How many recorded values exceeded [max_value]. *)

val min_value : t -> int
(** Smallest recorded value (bucket lower bound); 0 if empty. *)

val max_recorded : t -> int
(** Largest recorded value (bucket representative); 0 if empty. *)

val value_at_percentile : t -> float -> int
(** [value_at_percentile t p] for [p] in (0,100]: the smallest recorded
    bucket value such that at least [p] percent of recordings are <= it.
    @raise Invalid_argument if empty or [p] out of range. *)

val mean : t -> float
(** Mean of bucket representatives, weighted by count; 0 if empty. *)

val merge_into : dst:t -> t -> unit
(** Add all recordings of the source into [dst].  Both histograms must
    have the same [max_value].  @raise Invalid_argument otherwise. *)

val copy : t -> t
(** An independent histogram with the same parameters and recordings. *)

val merge : t -> t -> t
(** Non-destructive merge: a fresh histogram holding the union of both
    recording sets, the pure form of {!merge_into}.  Preserves total
    count, per-bucket sums, saturation counts and min/max.  Both
    arguments must have the same [max_value].
    @raise Invalid_argument otherwise. *)

val bucket_counts : t -> int array
(** A copy of the raw per-bucket counts, for property tests that check
    merge preserves bucket sums exactly. *)

(** {2 Bucketing internals}

    Exposed so property tests can check the log-linear indexing
    directly: [value_from_index (counts_index v)] must be a bucket
    lower bound within the advertised relative error of [v], and
    [counts_index] must be monotone in [v]. *)

val counts_index : int -> int

val value_from_index : int -> int
