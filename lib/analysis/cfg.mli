(** Whole-program index over a compiled {!Retrofit_fiber.Ir} program,
    keyed by the compiler's dense ids: function [i] is
    [compiled.fns.(i)], spec [i] owns handle descriptor [i] (compile
    order, so a spec id is the [handler] index the machine's
    [on_perform] reports), and labels and C functions are the
    compiler's [eff_ids], [exn_ids] and [cfun_names] indices.  It holds
    the function table, the handler installations, each function's
    interprocedural edges (direct calls, handler body/case functions,
    and callback re-entries through external calls), reachability from
    [main] with a BFS witness tree, and the one fixpoint driver.

    Everything downstream — linearity, handler resolution, the
    handled-effect dataflow — starts from this index; ids turn back
    into names only when a report prints. *)

(** How an external C function behaves for analysis purposes.  [Pure]
    never re-enters the program and raises nothing; [Calls_back f] may
    invoke the named function (once or many times) behind a §5.3
    callback barrier; [Opaque] may call back into any function and
    raise any interned exception. *)
type cfun_model = Pure | Calls_back of string | Opaque

type spec = {
  sp_id : int;  (** its handle-descriptor index *)
  sp_pre : int;
      (** pre-order position among the program's [Handle] nodes: the
          number reports print as [spec#N] *)
  sp_in : int;  (** function whose body contains the [Handle] *)
  sp : Retrofit_fiber.Ir.handle_spec;
  sp_body : int;
  sp_cases : int list;  (** [retc], the exception clauses', the effect clauses' *)
  sp_effs : Bits.t;  (** effect labels handled *)
  sp_exns : Bits.t;  (** exception labels handled *)
}

type t = {
  compiled : Retrofit_fiber.Compile.compiled;
  fns : Retrofit_fiber.Ir.fn array;
  specs : spec array;
  cfuns : cfun_model array;  (** the model, once per C function *)
  calls : int list array;  (** per function: callees, last call first *)
  installs : int list array;  (** per function: its specs, compile order *)
  extcalls : int list array;  (** per function: C functions, last call first *)
  reachable : bool array;
  parent : int array;  (** BFS tree edge, child → parent; -1 at the root *)
  reach_order : int array;
      (** reachable functions in BFS order from [main] — callers before
          the functions they reach.  The interprocedural fixpoints
          iterate this order: top-down passes forward, bottom-up passes
          reversed, so chains converge in a near-constant number of
          rounds instead of one round per call-graph level. *)
}

val build :
  cfun_model:(string -> cfun_model) ->
  Retrofit_fiber.Compile.compiled ->
  Retrofit_fiber.Ir.program ->
  t
(** The compiled form must be the program's. *)

exception No_fixpoint

val fixpoint : (unit -> bool) -> unit
(** Runs a round while it reports a change.
    @raise No_fixpoint when the 1000th round still does — a silent stop
    there would hand the verdicts a non-fixpoint. *)

val fn_id : t -> string -> int

val eff_id : t -> string -> int

val exn_id : t -> string -> int

val cfun_id : t -> string -> int

val index_of : string array -> string -> int
(** Position of a name the array holds, by linear scan: the arrays indexed
    this way (C functions, a function's variables) are short. *)

val callback : t -> int -> int
(** The function a [Calls_back] C function re-enters, or -1. *)

val spec_of : t -> int -> Retrofit_fiber.Ir.handle_spec -> spec
(** The spec of a [Handle] node of the function. *)

val iter_expr : (Retrofit_fiber.Ir.expr -> unit) -> Retrofit_fiber.Ir.expr -> unit
(** Pre-order traversal of every sub-expression, left to right.  The
    traversal order is part of the contract: the escape analysis and the
    linearity analysis both number resume sites by this order. *)

val iter_expr_post :
  (Retrofit_fiber.Ir.expr -> unit) -> Retrofit_fiber.Ir.expr -> unit
(** Compile-order traversal: the same children, left to right, but each
    node is visited after its whole subtree — the order in which
    {!Retrofit_fiber.Compile} emits a node's own instruction after the
    code of its operands.  The [i]-th [Perform] visited is the [i]-th
    [PerformI] of the function's code. *)

val path_to : t -> int -> string list
(** Call-graph witness from [main] to the function, outermost first;
    its name alone if unreachable. *)

(** {1 Instruction-level CFG}

    Successor relation over compiled code, shared with the red-zone
    audit.  A [PushtrapI] exposes its handler target as a
    [Trap_handler] edge — entered with the two words the machine pushes
    (payload and exception id) on the operand stack. *)

type edge = Fallthrough | Branch | Trap_handler

val instr_successors :
  code:(int -> Retrofit_fiber.Ir.instr) -> at:int -> (int * edge) list
