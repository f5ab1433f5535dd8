(** The process-wide metrics registry.

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

type labels = (string * string) list

val on : unit -> bool

val scoped : (unit -> 'a) -> 'a
(** Enable for the duration of the callback, restoring the previous
    state.  What the registry held before stays: call {!reset} first for
    a clean slate. *)

val reset : unit -> unit
(** Drop every instrument. *)

val inc : ?labels:labels -> ?by:int -> string -> unit
(** Increment a counter (created at zero on first use).
    @raise Invalid_argument if the name is registered as another kind. *)

val set_gauge : ?labels:labels -> string -> int -> unit

val observe : ?max_value:int -> string -> int -> unit
(** Record one value into a histogram instrument (created on first use
    with [max_value], default 60 s in ns). *)

val observe_histogram : ?labels:labels -> string -> Retrofit_util.Histogram.t -> unit
(** Fold an entire pre-recorded histogram into the instrument,
    preserving bucket sums (the registry stores a copy; the argument is
    not retained). *)

val merge_counter_table : Retrofit_util.Counter.t -> unit
(** Ingest a fiber machine's counter table as registry counters named
    ["fiber_" ^ name]. *)

val get : ?labels:labels -> string -> int
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

val snapshot : unit -> sample list
(** Atomic, deterministic view: sorted by (name, labels). *)

val to_prometheus : unit -> string
(** Text exposition: [# TYPE] lines plus one line per sample;
    histograms render as summaries with 0.5/0.9/0.99 quantiles and
    [_count] / [_saturated] lines. *)
