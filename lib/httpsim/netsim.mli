(** Synthetic network workload generation.

    Models the client side of §6.3.4: [connections] open keep-alive
    connections issuing GET requests for a static page at a constant
    mean aggregate rate — the open-loop, constant-throughput discipline of
    wrk2, under which a slow server cannot slow the arrival process
    down (avoiding coordinated omission). *)

type event = { arrival_ns : int; conn_id : int; raw : string }
(** [raw] is [request_for ~target ~conn_id]; the events of one connection
    share one string. *)

val request_for : target:string -> conn_id:int -> string
(** The raw bytes of one GET request. *)

val poisson_rate :
  rng:Retrofit_util.Rng.t ->
  connections:int ->
  rate_rps:int ->
  duration_ms:int ->
  target:string ->
  unit ->
  event list
(** Poisson arrivals at the given mean rate — the aggregate of many
    independent keep-alive connections, and what gives the latency
    distribution its queueing tail.  Events come in non-decreasing
    arrival order ({!Loadgen.run} serves them as they come);
    connections are used round-robin. *)
