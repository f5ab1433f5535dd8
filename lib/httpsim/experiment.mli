(** The Fig 6 experiment: throughput and tail latency for the three
    server architectures. *)

val servers : (Server.model * (string -> string)) list
(** Each model paired with its real code path. *)

val default_rates : int list
(** The offered-load sweep (requests per second). *)

val fig6a : ?duration_ms:int -> unit -> (string * (int * float) list) list
(** Per server: offered rate → achieved rate.  All three plateau at the
    service capacity (the paper observes ≈30k requests/s). *)

val fig6b : ?rate_rps:int -> ?duration_ms:int -> unit -> Loadgen.outcome list
(** Latency distributions at the default 20k requests/s — two thirds of
    the plateau, the paper's "optimal load" point. *)

type degradation_cell = { intensity : float; outcome : Loadgen.outcome }

val degradation :
  ?duration_ms:int -> ?rates:int list -> unit -> (string * degradation_cell list) list
(** The degradation sweep: offered load × fault intensity (multipliers
    0, 0.5, 1 and 2 over {!Faults.default}), per server model, under
    the resilient policy of {!Loadgen.run}, at seed 42.  Each cell carries the
    full resilient outcome (goodput, p99, error taxonomy, fault
    accounting). *)
