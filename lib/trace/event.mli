(** Typed events of the runtime eventlog.

    One constructor per observable runtime action: fiber lifecycle and
    stack management (§5.1–5.2), effect operations, handler
    setup/teardown, the external-call/callback boundary (§5.3), httpsim
    request lifecycle and fault injections, and scheduler queue depths.
    Timestamps are virtual (machine events: cumulative weighted
    instructions; httpsim events: simulated nanoseconds), so an
    eventlog is a pure function of the workload seed. *)

type flow_step = Flow_start | Flow_step | Flow_end

type ev =
  | Fiber_create of { id : int; parent : int; size : int }
  | Fiber_switch of { from_id : int; to_id : int }
  | Fiber_grow of { id : int; old_words : int; new_words : int; copied : int }
  | Fiber_free of { id : int }
  | Cache_hit of { size : int }
  | Cache_miss of { size : int }
  | Perform of { eff : string }
  | Resume of { kid : int; fibers : int }
      (** [kid] is the continuation value: its slot's index plus
          [2^32] times the slot's generation, below [2^53]; the fiber
          machine's [Machine.cont_slots] documents the encoding *)
  | Discontinue of { kid : int; exn : string }
  | Raise of { exn : string }
  | Handler_push of { hidx : int; fiber : int }
  | Handler_pop of { hidx : int; fiber : int }
  | Extcall_begin of { name : string }
  | Extcall_end of { name : string }
  | Callback_begin of { name : string }
  | Callback_end of { name : string }
  | Runq_depth of { depth : int }
  | Io_pending of { depth : int }
  | Wakeup of { reason : string; wait_ns : int }
      (** a runnable thunk ran: [ts] is the run instant, [ts - wait_ns]
          its runnable-enqueue instant, [reason] the wakeup cause *)
  | Request of {
      req : int;
      conn : int;
      attempt : int;
      status : int;
      start : int;
      finish : int;
    }
  | Fault_injected of { conn : int; kind : string }
  | Shed of { conn : int }
  | Retry of { conn : int; attempt : int }
  | Gc_pause of { start : int; dur : int }
  | Inflight_depth of { depth : int }
  | Req_arrival of { req : int; conn : int }
  | Req_enqueue of { req : int; attempt : int }
  | Req_stall of { req : int; dur : int }
  | Req_backoff of { req : int; attempt : int; dur : int }
  | Req_drop of { req : int; attempt : int; dur : int }
  | Req_fault_slow of { req : int; attempt : int; dur : int }
  | Req_done of { req : int; disposition : string }
  | Sup_child_exit of { path : string; how : string }
  | Sup_restart of { path : string }
  | Sup_escalate of { path : string }
  | Chaos_inject of { kind : string }
  | Drain_phase of { phase : string }
  | Nursery_begin of { name : string }
  | Nursery_end of { name : string }
  | Flow of { step : flow_step; id : int; name : string; tid : int }
      (** Chrome flow event (phase s/t/f) synthesized by the causal
          layer; [tid] anchors it to a subsystem track *)
  | Mark of { name : string }

type t = { ts : int; ev : ev }

val track : ev -> int
(** Virtual thread id for the Chrome exporter: 1 = fiber machine,
    2 = schedulers, 3 = httpsim, 4 = supervision/chaos, 0 = free-form
    marks. *)

val cat : ev -> string

val name : ev -> string

val args : ev -> (string * int) list

type phase =
  | Begin
  | End
  | Complete of int
  | Counter
  | Instant
  | Flow_phase of flow_step

val phase : ev -> phase

val phase_letter : phase -> string

val flow_id : ev -> int option
(** The flow binding id of a [Flow] event (the Chrome ["id"] field);
    [None] for every other constructor. *)
