(** Supervised web-server simulation (ISSUE 7 tentpole wiring).

    Runs one of the three §6.3.4 servers at the fiber level under a
    {!Retrofit_core.Supervise} tree: sharded accept loops (transient,
    killable workers under a listener supervisor), per-connection
    {!Retrofit_core.Supervise.Nursery} scopes with one fiber per
    pipelined request, a watchdog worker that health-checks accept-loop
    heartbeats and kills wedged loops, and a graceful drain protocol
    (stop accepting, give in-flight requests a deadline, then shut the
    tree down bottom-up).

    The simulation is pure in its config: all randomness (arrival
    times, service jitter, wedge placement) comes from [seed], virtual
    time comes from a private {!Retrofit_core.Evloop}, and optional
    chaos comes from the seeded {!Retrofit_core.Sched.Chaos} policy —
    so two runs of the same config produce byte-identical summaries. *)

type config = {
  seed : int;
  connections : int;
  requests_per_conn : int;
  shards : int;  (** number of accept loops *)
  listener_strategy : Retrofit_core.Supervise.strategy;
  max_restarts : int;  (** per supervisor, over the whole run *)
  chaos : Retrofit_core.Sched.Chaos.t option;
  wedge_rate : float;  (** P(a connection wedges its accept loop) *)
  wedge_ns : int;  (** how long a wedged loop stops heartbeating *)
  drain_after_ns : int option;  (** start graceful drain at this time *)
  drain_deadline_ns : int;  (** grace period before in-flight cancel *)
}
(** The timings no run varies are constants of the implementation:
    the arrival gap ({!interarrival_ns}), the think time between
    pipelined requests, the service jitter, the watchdog's period and
    staleness limit, the accept loop's heartbeat chunk and the poll
    interval.  Every supervisor's restart budget covers the whole run
    (no intensity window). *)

val interarrival_ns : int
(** Mean virtual gap between connection arrivals (20 us). *)

val default_config : seed:int -> config
(** 120 connections x 6 requests, 4 shards, no chaos, no wedges, no
    drain: a healthy baseline run. *)

val with_chaos : config -> config
(** The chaos-recovery scenario on top of [config]: the default chaos
    policy seeded with the config's seed, 5% of accepts wedged, and a
    budget of 1000 restarts. *)

(** Where every request ended up.  Each of the [total] requests lands
    in exactly one of the disposition counters; [silent] counts
    accepted requests that reached the final sweep with no disposition
    at all (the invariant the chaos campaign checks is [silent = 0]). *)
type summary = {
  server : string;
  total : int;
  completed : int;  (** 2xx responses *)
  server_errors : int;  (** 5xx: the crash barrier fired *)
  client_errors : int;  (** 4xx *)
  killed : int;  (** aborted by a kill/crash before any drain *)
  cancelled_drain : int;  (** in-flight, cancelled at the drain deadline *)
  rejected_drain : int;  (** never accepted: listener was draining *)
  lost : int;  (** never accepted: the tree gave up *)
  silent : int;  (** accepted but unaccounted — must be 0 *)
  conns_aborted : int;  (** connection nurseries that failed *)
  restarts : int;
  escalations : int;
  watchdog_kills : int;
  chaos_stats : Retrofit_core.Sched.Chaos.stats option;
  outcome : string;  (** ["completed"] or ["gave_up:<path>"] *)
  duration_ns : int;  (** virtual time at exit *)
  drain_latency_ns : int;  (** drain begin -> tree down; -1 if no drain *)
  throughput_rps : float;  (** completed per virtual second *)
  p50_ns : int;  (** latency percentiles over 200s *)
  p99_ns : int;
}

val run :
  ?model:Server.model ->
  ?process:(?pre:(unit -> unit) -> string -> string) ->
  config ->
  summary
(** Run the supervised simulation.  [model] (default {!Server.mc})
    supplies the cost constants; [process] (default: mc's, the first
    entry of {!servers}) handles one raw request with the request's
    service time injected via [?pre]. *)

val servers : unit -> (Server.model * (?pre:(unit -> unit) -> string -> string)) list
(** Each server model with its request path: effects (mc), goroutine
    (go), monadic (lwt), in that order. *)

val run_servers : config -> summary list
(** [run] once per entry of {!servers}, in order. *)

val summary_to_string : summary -> string
(** One deterministic line — the chaos campaign byte-compares these. *)

val accounted : summary -> int
(** Sum of all disposition counters; equals [total] on every run. *)
