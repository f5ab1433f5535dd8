(** The causal-attribution experiment: resilient-websim sweep over
    fault intensity x admission-queue cap with tracing on, span-graph
    reconstruction per cell, and a bucket-share table showing how
    latency attribution shifts (DESIGN.md §14). *)

val report : ?quick:bool -> unit -> string
