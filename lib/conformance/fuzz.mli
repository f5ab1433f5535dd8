(** Campaign driver: generate, cross-check, shrink, report.

    Program [i] of a campaign is generated from the derived seed
    [prog_seed ~seed i], so any failure is replayable from the campaign
    seed and the program index alone — independent of how many programs
    ran before it or of any other command-line setting. *)

type failure = {
  index : int;
  prog_seed : int;
  report : Oracle.report;
  analysis : string option;
      (** analyzer-vs-oracle soundness contradiction, when [analyze] *)
  policy : string option;
      (** name of the stack policy whose run disagreed with the default
          policy, when the failure is a policy differential *)
  policy_outcome : Outcome.t option;
  shrunk : Retrofit_fiber.Ir.program option;
  shrunk_report : Oracle.report option;
}

type stats = {
  programs : int;
  agreements : (string * int) list;  (** per pair *)
  skips : (string * int) list;  (** per pair, fuel-outs *)
  policy_agreements : (string * int) list;
      (** per stack policy, vs the default policy's outcome *)
  policy_skips : (string * int) list;
      (** per stack policy: fuel-outs, plus reservation exhaustion the
          default policy did not hit *)
  audit_checks : int;
  audit_visits : int;
      (** {!Retrofit_fiber.Audit.audit_visits}, summed over every
          audited run *)
  dwarf_probes : int;
  analyzed : int;  (** programs run through the static analyzer *)
  dispatch_checks : int;
      (** dynamic perform dispatches held against the handler-resolution
          candidate sets (every fiber leg, all campaign configs) *)
  bound_checks : int;
      (** counter tables held against the static cost bounds *)
  failures : failure list;
}

val prog_seed : seed:int -> int -> int
(** Deterministic per-program seed derived from the campaign seed. *)

val default_policies : Retrofit_fiber.Stack_policy.t list
(** The non-default stack policies ([segmented], [segmented-cow],
    [reserve]) — the [policies] argument of the nightly differential
    matrix. *)

val campaign :
  ?fiber_config:Retrofit_fiber.Config.t ->
  ?sem_one_shot:bool ->
  ?audit:bool ->
  ?dwarf:bool ->
  ?analyze:bool ->
  ?max_failures:int ->
  ?shrink:bool ->
  ?policies:Retrofit_fiber.Stack_policy.t list ->
  ?multishot:bool ->
  seed:int ->
  count:int ->
  unit ->
  stats
(** Runs [count] programs.  Stops early after [max_failures] failures
    (default 5).  [dwarf] (default true) samples unwind round-trips,
    reusing the per-program seed for probe placement.  [analyze]
    (default false) additionally runs {!Static.analyze} on every
    program and records a failure whenever the analyzer's [Safe] or
    [Must] claims contradict a backend's observed outcome (or the
    analyzer itself raises).  With [analyze] on, every fiber leg
    (under the default config and every listed policy) also records
    the handler identity at each dynamic perform, and the campaign
    fails on any dispatch outside the site's statically resolved
    candidate set, any handler-less [Unhandled] at a site not flagged
    [+toplevel]/[+via-c], and any measured counter exceeding its
    finite static bound ({!Static.dispatch_contradiction},
    {!Static.bound_contradiction}).  When the metrics registry is
    enabled, each analyzed program's per-site resolution census is
    recorded as [perform_site_resolution_total{class=...}].  [shrink]
    (default true) minimises each failing program before recording it;
    with [analyze] on, a program stays interesting while either the
    oracle disagrees or the contradiction persists.

    [policies] (default [[]]) additionally runs every program on the
    fiber backend under each listed stack policy and diffs the outcome
    against the default policy's run; a disagreement (or a policy-side
    audit violation or unwind failure) is a campaign failure whose
    shrunk repro names the offending policy.  Fuel-outs, and a
    policy-side [Stack_overflow] the default policy did not produce
    (reservation exhaustion), are skips.

    [multishot] (default [false]) runs a multishot campaign: the
    semantics machine drops its one-shot discipline and the native leg
    is skipped (host continuations cannot resume twice), so generated
    programs that resume a continuation multiple times are checked
    semantics<->fiber — and across [policies], exercising clone
    strategies.  Raises [Invalid_argument] — loudly, rather than
    generating programs the backend then rejects — when [fiber_config]
    does not have multishot cloning enabled.

    Each program, and each shrink candidate, is compiled once
    ({!Fiber_backend.compile}) and run once per configuration: every
    check above, the oracle's, the policy differential's and the
    analyzer's, reads those runs, and its DWARF unwind table is built
    at most once, by the first sampled leg.  A program that does not
    compile is a [Model_error "fiber compile: ..."] on every fiber leg
    and makes the analyzer raise, as a separate compile in each
    would. *)

val replay_corpus : unit -> (string * string) list
(** Runs every {!Corpus} entry through the oracle and pins its native
    outcome to the entry's [expect]; returns [(name, problem)] pairs,
    empty when the corpus is green. *)

val failure_to_string : failure -> string

val stats_to_string : stats -> string
