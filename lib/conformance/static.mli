(** Bridge from conformance programs to the static effect-safety
    analyzer, and the soundness cross-check the fuzzer enforces.

    A generated program is analyzed as it is, with the precise
    external-function model of the two fragment C functions
    ({!Fragment.ext_id}'s stub is pure, {!Fragment.callback}[ f]'s
    re-enters [f]).  The
    analyzer's [Safe] and [Must] claims are then held against what the
    backends actually observed: a [Safe]-from-[Unhandled] (or
    one-shot) claim contradicted by any backend, or a [Must] claim
    contradicted by a settled terminating outcome, is a soundness bug
    and fails the campaign.  Fuel-outs and model errors are never
    contradictions. *)

val cfun_model : string -> Retrofit_analysis.Cfg.cfun_model

type claims = Retrofit_analysis.Analyze.result

val analyze :
  ?compiled:Retrofit_fiber.Compile.compiled ->
  Retrofit_fiber.Ir.program ->
  claims
(** [compiled], when given, must be the compiled form of the program.
    The campaign passes the one {!Fiber_backend.compile} value every
    leg of the program runs ({!Fiber_backend.program}), so the analyzer
    is not charged for a second compile and its claims are about the
    code its fiber legs execute.  Without it the analyzer
    compiles the program itself, raising
    {!Retrofit_fiber.Compile.Error} on a program that does not
    compile. *)

val verdicts :
  one_shot:bool ->
  claims ->
  Retrofit_analysis.Diag.verdict * Retrofit_analysis.Diag.verdict
(** [(unhandled, one_shot_violation)] as claimed against a backend that
    does ([one_shot:true]) or does not enforce the one-shot
    discipline. *)

val contradiction : ?one_shot:bool -> claims -> Outcome.t -> string option

val check :
  ?fiber_config:Retrofit_fiber.Config.t ->
  ?sem_one_shot:bool ->
  claims ->
  Oracle.report ->
  string option
(** First contradiction across the three backends of one oracle
    report, labelled with the backend name. *)

(** {1 Handler-resolution and cost-bound soundness}

    The resolution pass claims, per perform site, the set of handle
    specs that can dynamically receive it; the cost pass claims a
    per-counter upper bound per stack policy.  Both are checked against
    a {!Fiber_backend.exec} — its [on_perform] observation stream and
    its returned counter table.  The campaign checks every fiber leg it
    runs, audited and DWARF-sampled as it is: neither the auditor nor
    the unwinder moves a dispatch or a bounded counter. *)

val runtime_map : claims -> (int, Retrofit_analysis.Resolve.site) Hashtbl.t
(** Perform pc to static site over the compiled form inside the claims:
    the pcs an {!Fiber_backend.exec} of that compiled value reports
    (and of any other compile of the same program: the compiler is
    deterministic). *)

val dispatch_contradiction :
  claims ->
  (int, Retrofit_analysis.Resolve.site) Hashtbl.t ->
  (int * int) list ->
  string option
(** [(site_pc, handler_index)] observations from [on_perform]; a
    handler index is the spec id the candidate sets hold.  A
    contradiction is a dispatch to a spec outside the site's candidate
    set, a handler-less boundary at a site not flagged
    [+toplevel]/[+via-c], or a perform at an unmapped pc. *)

val bound_contradiction :
  claims -> config:Retrofit_fiber.Config.t -> Retrofit_util.Counter.t -> string option
(** First counter measured by a run under [config] that exceeds its
    finite static bound under that run's policy, discipline and red
    zone; ∞ bounds are vacuous. *)
