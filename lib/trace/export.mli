(** Eventlog exporters and the Chrome trace_event schema checker. *)

val to_chrome : ?dropped:int -> Event.t list -> string
(** Chrome trace_event "JSON Array Format" (loadable in chrome://tracing
    and Perfetto): a top-level object with a [traceEvents] array.
    Timestamps are virtual nanoseconds; no wall clock is consulted, so
    the bytes are a pure function of the events. *)

val of_trace_chrome : Trace.t -> string

val of_trace_text : Trace.t -> string
(** Human-readable flat form: one line per event — timestamp, category,
    name, key=value args. *)

(** {1 Schema checking} *)

val validate_chrome : string -> (int, string) result
(** Check the schema the trace viewers rely on: [traceEvents] is an
    array of objects, each with string [name]/[cat]/[ph], integer
    [ts]/[pid]/[tid], a known phase letter, and [dur] on complete
    events.  Returns the event count. *)
