(** The wrk2-style measurement harness (Fig 6), with a resilience
    layer.

    Drives a server (a cost model plus a real [process_raw] code path)
    with an open-loop Poisson workload and records
    coordinated-omission-free latencies in an HDR histogram: each
    request's latency is measured from its {e scheduled} arrival time,
    so a backed-up server accrues queueing delay instead of silently
    slowing the load down.

    One engine serves every run: a virtual single CPU, plus an optional
    fault plan ({!Faults}), per-request deadlines, client-side retry
    with exponential backoff and jitter, admission control (shedding to
    503 past a queue-depth cap), and deadline propagation (expired
    requests answered 408 without paying service time).  A run without
    a fault plan is the plain Fig 6 measurement (see {!run}). *)

type fault_account = {
  injected : int;  (** faults tagged onto the trace by {!Faults.plan} *)
  to_malformed : int;  (** wire damage that earned a 4xx *)
  to_retried : int;  (** drops recovered by a client retry *)
  to_timeout : int;  (** faults that killed the request *)
  to_server_error : int;  (** backend crashes that produced a 500 *)
  to_absorbed : int;  (** faults fully masked by the resilience layer *)
}
(** Where each injected fault ended up.  Attribution is exclusive:
    [injected = to_malformed + to_retried + to_timeout +
    to_server_error + to_absorbed] (a tested invariant). *)

type outcome = {
  model_name : string;
  offered_rps : int;
  achieved_rps : float;
      (** 200s delivered within deadline per second of virtual time *)
  total_requests : int;  (** distinct requests in the trace *)
  completed : int;  (** 200 within deadline *)
  errors : int;  (** [timeouts + malformed] *)
  timeouts : int;  (** deadline expired or retry budget exhausted *)
  retries : int;  (** retry attempts issued (event count) *)
  shed : int;  (** 503s from admission control (event count) *)
  malformed : int;  (** requests terminally rejected with a 4xx *)
  server_errors : int;  (** 500s from the crash barrier (event count) *)
  faults : fault_account;
  gc_pauses : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}
(** Request dispositions are exclusive and exhaustive:
    [completed + timeouts + malformed = total_requests] (a tested
    invariant).  [shed], [server_errors] and [retries] count events
    along the way, not final dispositions. *)

val run :
  ?seed:int ->
  ?faults:Faults.rates ->
  ?queue_cap:int ->
  model:Server.model ->
  process:(string -> string) ->
  rate_rps:int ->
  duration_ms:int ->
  unit ->
  outcome
(** Simulate [duration_ms] of Poisson load at mean rate [rate_rps] over
    1000 connections, as in the paper.  Each request really executes
    [process]; its virtual completion time comes from the model's cost
    constants and a single-CPU queue with GC pauses.

    The resilience policy follows [?faults].  Without it the run
    injects nothing and is lenient: an effectively infinite deadline
    and queue cap and no retries, so no request can time out, retry or
    be shed, and the run is the plain Fig 6 measurement.  With a fault
    plan (even {!Faults.none}) the run is resilient: a 1 s deadline, 3
    attempts, 1 ms base backoff with 0.5 ms jitter, 0.2 ms drop
    detection and a queue cap of 512.  [?queue_cap] replaces the
    policy's admission-control cap: a queue deeper than it sheds to
    503. *)
