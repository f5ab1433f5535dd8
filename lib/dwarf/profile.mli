(** Sampling profiler over the DWARF unwinder.

    Every [interval] virtual-time ticks — the machine's cumulative
    "instructions" cost, not wall time — the profiler takes a backtrace
    of the running machine through {!Unwind.backtrace}, which crosses
    fiber boundaries by following parent pointers (§5.4), and
    aggregates the result as folded flamegraph stacks (root-first,
    semicolon-joined, one [stack count] line each — the format
    flamegraph.pl and speedscope consume).  Fiber crossings appear as
    ["<fiber>"] marker frames, callback boundaries as ["<C>"].

    Sampling is driven entirely by virtual time, so a profile is a pure
    function of the workload: same program, same interval — same folded
    output, byte for byte.  Unwind failures are counted, never fatal,
    and published as the [profile_unwind_failures_total] metric. *)

type t

val create : ?interval:int -> Table.t -> t
(** Sample every [interval] (default 1000) instruction-cost ticks.
    @raise Invalid_argument unless [interval > 0]. *)

val interval : t -> int

val hook : t -> Retrofit_fiber.Machine.t -> unit
(** The per-step callback: pass as [~on_step] to
    {!Retrofit_fiber.Machine.run}. *)

val samples : t -> int
(** Samples attempted (successful or not). *)

val failures : t -> int
(** Samples on which the unwinder raised {!Unwind.Unwind_error}. *)

val boundary_samples : t -> int
(** Samples whose stack crossed at least one fiber boundary. *)

val record_wait : ?n:int -> t -> kind:string -> unit
(** Add [n] (default 1) blocked-time samples under the synthetic
    [<sched>;<wait:KIND>] folded frame (kinds in use: [io], [runq]) —
    speedscope then shows parked/runnable time alongside on-CPU
    frames.  Counted in {!samples} and {!wait_samples}. *)

val wait_samples : t -> int
(** Samples recorded via {!record_wait}. *)

val stacks : t -> (string * int) list
(** Folded stacks with counts, sorted by stack. *)

val folded : t -> string
(** The folded flamegraph file contents. *)

val publish : t -> unit
(** Push sample/failure/boundary totals into the metrics registry
    (no-op while the registry is disabled). *)
