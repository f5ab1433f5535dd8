(** Chaos campaign over the supervised websim.

    Scenario [i] derives a small randomized configuration (2-6
    connections, 1-4 requests each, 1-2 shards, random supervision
    strategy, random server model, chaos on/off, drain on/off, wedges
    on/off) from a seed derived from the campaign seed and [i] alone
    (recorded in each failure), runs the simulation twice and
    byte-compares the deterministic summary lines, then audits the
    accounting invariants: dispositions sum to [total], zero silent
    drops, and a calm (no chaos, no drain, no wedges) run completes
    everything with zero restarts. *)

type failure = {
  index : int;
  scenario_seed : int;
  kind : string;  (** [nondet] | [invariant] | [crash] *)
  detail : string;
}

type stats = {
  scenarios : int;
  runs : int;  (** simulation executions (2x per scenario) *)
  chaotic : int;  (** scenarios with chaos enabled *)
  drained : int;  (** scenarios exercising graceful drain *)
  restarts : int;  (** total supervisor restarts observed *)
  failures : failure list;
}

val campaign : ?count:int -> seed:int -> unit -> stats
(** Run [count] (default 200) scenarios. *)

val stats_to_string : stats -> string
