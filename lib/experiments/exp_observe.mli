(** Observability demonstration: the sampling profiler, the metrics
    registry and the eventlog exercised together on seeded fiber-machine
    and scheduler workloads (DESIGN.md §10).

    [profiled_run] is also the machinery behind [retrofit websim
    --profile]: it runs a reperform-heavy fiber-machine program under
    the DWARF sampling profiler, so the folded stacks cross fiber
    boundaries, and (when the registry is enabled) merges the machine's
    cost counters in under a [fiber_] prefix plus the stack-cache
    statistics as gauges. *)

val profiled_run : ?quick:bool -> unit -> Retrofit_dwarf.Profile.t
(** @raise Failure if the workload does not complete normally. *)

val sched_workload : unit -> int
(** Fork/yield a batch of cooperative threads under {!Retrofit_core.Sched};
    returns a checksum. *)

val fold_waits :
  Retrofit_dwarf.Profile.t ->
  Retrofit_trace.Event.t list ->
  Retrofit_causal.Graph.t
(** Derive blocked-time profiler samples from an eventlog: each wait
    segment on a reconstructed critical path (and each nonzero-wait
    scheduler wakeup) becomes one synthetic [<wait:io>] /
    [<wait:runq>] folded sample via {!Retrofit_dwarf.Profile.record_wait}.
    Returns the reconstructed span graph for reuse. *)

val report : ?quick:bool -> unit -> string
