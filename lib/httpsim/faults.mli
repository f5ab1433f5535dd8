(** Deterministic fault injection for the httpsim stack.

    A fault {e plan} perturbs a {!Netsim} trace: each event is tagged
    with at most one fault, chosen by a dedicated xoshiro stream so the
    plan is a pure function of [(seed, rates, trace)] — equal seeds
    give bit-identical plans, which is what makes the degradation
    sweep (and its CI determinism check) possible.

    The taxonomy models the §6.4 failure surface:
    - {b wire damage}: truncated or corrupted request bytes (the server
      must answer 4xx, never crash);
    - {b dropped connections}: the request never arrives; the client
      notices and retries;
    - {b slow clients}: the request's arrival is stalled;
    - {b backend latency spikes}: extra service time;
    - {b transient backend failures}: the application handler raises
      mid-request ({!Server.Backend_failure}), exercising each server
      model's crash barrier. *)

type rates
(** The probability of each fault kind per request: truncated bytes,
    one corrupted byte, a dropped connection, a slow-client stall, a
    backend latency spike and a transient backend crash. *)

val none : rates
(** All rates zero: a plan from [none] injects nothing. *)

val default : rates
(** The default plan: ~4 % of requests faulted, spread across the
    taxonomy (see the field-by-field values in the implementation). *)

val scale : float -> rates -> rates
(** Multiply every rate; the fault-intensity axis of the degradation
    sweep.  @raise Invalid_argument on a negative factor. *)

type fault =
  | Truncate of int  (** keep only this many leading bytes *)
  | Corrupt of int  (** overwrite the byte at this index *)
  | Drop  (** the request never reaches the server *)
  | Stall of int  (** arrival delayed by this many virtual ns *)
  | Backend_slow of int  (** service inflated by this many virtual ns *)
  | Backend_fail  (** the handler raises {!Server.Backend_failure} *)

type injected = { event : Netsim.event; fault : fault option }

val plan : seed:int -> rates:rates -> Netsim.event list -> injected list
(** Tag each event with at most one fault.  Order- and
    length-preserving; deterministic in [(seed, rates)].
    @raise Invalid_argument if any rate is negative, non-finite, or the
    rates sum past 1. *)

val injected_count : injected list -> int

val damaged_raw : string -> fault -> string
(** The bytes the server actually sees for a faulted event: a strict
    prefix for [Truncate], a control byte spliced in for [Corrupt], a
    crash-tag header for [Backend_fail], and the original bytes for the
    timing-only faults. *)

val fault_label : fault -> string
