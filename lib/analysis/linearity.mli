(** Continuation-linearity analysis.

    Continuations are born at handler installations — the machine hands
    the captured continuation to a spec's effect-case function as its
    second argument — and the §3.1 discipline demands each be resumed
    exactly once.  This module tracks where those values can flow
    (interprocedurally, through lets, call arguments, handle body
    arguments and resume results) and bounds, per captured
    continuation, how many resume operations a single handling episode
    can apply: a saturating [(lo, hi)] count in [{0, 1, 2}], where 2
    means "two or more".

    [hi >= 2] at the spec level is the may-resume-twice lint; [lo = 0]
    the may-leak lint.  A continuation that reaches an untrackable
    position (arithmetic, an exception payload, an external call)
    degrades its spec to {e escaped}: every bound collapses to the
    worst case and every resume site is treated as possibly touching
    it.  Raises are counted as falling through, so minimum counts can
    be overstated on exceptional paths — {!Effects} compensates by
    zeroing the minimum when the case function can raise.

    Functions, specs and labels are {!Cfg} ids: per-function facts
    live in arrays indexed by function id, spec sets are {!Bits} over
    spec ids, and a variable is keyed by its name within its
    function. *)

type range = { lo : int; hi : int }

type resume_kind = Rcontinue | Rdiscontinue of int  (** exception id *)

type site = {
  s_fn : int;
  s_idx : int;  (** pre-order position among the function's resume sites *)
  s_kind : resume_kind;
  mutable s_specs : Bits.t;  (** spec ids possibly resumed here *)
  mutable s_may_second : bool;
      (** some path reaches this site with the continuation already
          resumed — the machine raises [Invalid_argument] here *)
}

type t = {
  sites : site array array;
      (** by function id, in traversal order: index [i] is the site
          claimed [i]-th by the shared pre-order walk; [[||]] for an
          unreachable function *)
  escaped : Bits.t;
  resumes : range array array;
}

val analyze : Cfg.t -> t

val is_escaped : t -> int -> bool

val resumes_in : t -> spec:int -> fn:int -> range
(** Resume count one captured continuation of [spec] experiences during
    one invocation of [fn]; the spec-level verdict is [resumes_in]
    applied to its effect-case functions. *)

val site_specs : t -> site -> Bits.t
(** Tracked specs plus every escaped spec. *)

val site_may_second : t -> site -> bool
