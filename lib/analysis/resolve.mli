(** Interprocedural handler resolution: which handler clauses can
    dynamically receive each [perform]?

    The analyzer's one handler-context fixpoint.  Top-down from [main],
    each function carries, per effect label, the set of handle-spec
    installations that may be the {e nearest} handler above one of its
    activations, and whether that nearest barrier may instead be the
    toplevel or a §5.3 callback frame (and which C function's).
    Contexts flow over calls, into handler bodies and case functions
    (which run in the installer's — and after a resume, the resumer's —
    frame), and into callback targets.  Inside a spec's body — and on
    re-entry after a resume — the labels the spec handles resolve to
    exactly that spec, shadowing every outer candidate;
    [Calls_back]/[Opaque] external calls blank the chain (the §5.3
    barrier), and [Opaque] re-entries flow into every function.
    {!Effects} reads its unhandled and callback-barrier facts from here
    ({!boundary}).  Contexts live in an array indexed by function and
    effect-label id, and candidate sets are {!Bits} over spec ids —
    compile-order ids, the handle-descriptor indices the machine
    reports, so no walk maps them to the runtime; reports print the
    pre-order [spec#N] ({!Cfg.spec.sp_pre}).

    Sites are classified by their number of distinct dynamic dispatch
    outcomes (candidate specs, plus one for a possible handler-less
    boundary): 1 is monomorphic — the inline-cache candidate the
    ROADMAP dispatch work wants — 2–4 polymorphic, 5+ megamorphic.
    The claim the conformance campaign checks is the candidate set
    itself: every observed dispatch target must be a candidate, and a
    handler-less [Unhandled] raise can only happen at a site flagged
    [+toplevel] or [+via-c]. *)

type klass = Mono | Poly | Mega

type site = {
  r_fn : string;
  r_idx : int;
      (** compile-order position among the function's perform sites:
          the [r_idx]-th [PerformI] of its compiled code *)
  r_label : string;
  r_site : Retrofit_fiber.Ir.expr;
      (** the [Perform] expression, printed only by {!diagnostics} *)
  r_cands : Bits.t;
      (** candidate handle specs, by [sp_id] — the handle index
          {!Retrofit_fiber.Machine.run}'s [on_perform] reports *)
  r_top : bool;  (** may reach toplevel with no handler *)
  r_via_c : bool;  (** may reach a §5.3 callback barrier *)
  r_class : klass;
}

type t

val analyze : Cfg.t -> Linearity.t -> t

val boundary : t -> int -> int -> bool * int
(** [boundary t fn label] is [(top, via)] for a [perform label] in
    function [fn]: [top] when some activation of [fn] may have no
    handler for [label] up to the toplevel, and [via >= 0] when some
    activation may instead reach the callback barrier of C function
    [via] first — the first such function the fixpoint found, one
    witness rather than the set.  A site's [r_top] and [r_via_c] are
    these two facts.  [(false, -1)] for an unreachable function. *)

val all_sites : t -> site list
(** Program order, compile order within each function. *)

val klass_to_string : klass -> string

val outcomes : site -> int

val site_to_string : t -> site -> string

val report : t -> string
(** The inline-cache candidate table: one census line, then one line
    per site with candidates, boundary flags and witness path. *)

val diagnostics : t -> Diag.t list
(** One [May]-verdict {!Diag.Megamorphic_dispatch} per megamorphic
    site. *)

val runtime_map : t -> (int, site) Hashtbl.t
(** [PerformI] pc — what {!Retrofit_fiber.Machine.run}'s [on_perform]
    reports as [site] — to the static site, over the compiled form the
    analysis ran on; the deterministic compiler makes the pcs valid for
    any independent compile of the same program. *)
