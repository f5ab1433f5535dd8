(** Process-wide metrics registry.

    Named, labelled instruments — counters, gauges and HDR histograms —
    with a deterministic snapshot and a Prometheus-style text
    exposition.  Disabled by default: every mutator returns after a
    single branch on the static enable flag, so the frozen counter
    tables and pinned benchmark outputs are unchanged by linking this
    library.  Guard hot call sites with [on ()] so the disabled path
    performs no allocation at all.

    Snapshots and expositions are sorted by (name, labels), never by
    hash order: two runs of the same seeded workload render
    byte-identical text. *)

type t

type labels = (string * string) list

val create : unit -> t

val default : t
(** The process-wide registry used when [?r] is omitted. *)

val on : unit -> bool

val scoped : ?r:t -> (t -> 'a) -> 'a
(** Enable for the duration of the callback (restoring the previous
    state), passing the registry through. *)

val reset : t -> unit

val inc : ?r:t -> ?labels:labels -> ?by:int -> string -> unit
(** Increment a counter (created at zero on first use).
    @raise Invalid_argument if the name is registered as another kind. *)

val set_gauge : ?r:t -> ?labels:labels -> string -> int -> unit

val observe : ?r:t -> ?labels:labels -> ?max_value:int -> string -> int -> unit
(** Record one value into a histogram instrument (created on first use
    with [max_value], default 60 s in ns). *)

val observe_histogram : ?r:t -> ?labels:labels -> string -> Retrofit_util.Histogram.t -> unit
(** Fold an entire pre-recorded histogram into the instrument,
    preserving bucket sums (the registry stores a copy; the argument is
    not retained). *)

val merge_counter_table :
  ?r:t -> ?labels:labels -> ?prefix:string -> Retrofit_util.Counter.t -> unit
(** Ingest an ad-hoc counter table (e.g. a fiber machine's probe
    counters) as registry counters named [prefix ^ name]. *)

val get : ?r:t -> ?labels:labels -> string -> int
(** Current counter/gauge value (histograms: total count); 0 if absent. *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Hist_v of {
      count : int;
      saturated : int;
      min_v : int;
      max_v : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

type sample = { name : string; labels : labels; value : value }

val snapshot : ?r:t -> unit -> sample list
(** Atomic, deterministic view: sorted by (name, labels). *)

val to_prometheus : ?r:t -> unit -> string
(** Text exposition: [# TYPE] lines plus one line per sample;
    histograms render as summaries with 0.5/0.9/0.99 quantiles and
    [_count] / [_saturated] lines. *)
