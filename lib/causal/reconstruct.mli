(** Eventlog -> span graph reconstruction.

    Builds per-request critical paths and attribution buckets from a
    captured eventlog, tolerating ring wraparound: a request whose span
    openings were evicted (or whose markers are structurally
    inconsistent) is counted in [summary.g_incomplete] and excluded
    from attribution rather than mis-attributed. *)

val of_events : ?dropped:int -> Retrofit_trace.Event.t list -> Graph.t

val of_trace : Retrofit_trace.Trace.t -> Graph.t

val edge_label : Graph.seg_kind -> string
(** Stable display name of a segment kind (queue blockers elided). *)

val critical_edges : Graph.t -> Graph.edge_stat list
(** Causal-edge totals over all complete requests' critical paths
    (service split into service / gc-pause / backend-slow), sorted by
    total time descending, then kind. *)

val with_flows :
  Retrofit_trace.Event.t list -> Graph.t -> Retrofit_trace.Event.t list
(** The original events merged with one Chrome flow (s/t/f chain) per
    complete request — arrival -> each attempt's service start ->
    resolution, id = request id — stably sorted by timestamp, ready for
    {!Retrofit_trace.Export.to_chrome}. *)
