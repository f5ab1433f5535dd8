(** Whole-program index over a {!Retrofit_fiber.Ir} program: function
    table, collected handler installations, the interprocedural call
    graph (direct calls, handler body/case functions, and callback
    re-entries through external calls), reachability from [main] with a
    BFS witness tree, and the label universes.

    Everything downstream — the handled-effect dataflow, the linearity
    analysis, the red-zone audit — starts from this index. *)

(** How an external C function behaves for analysis purposes.  [Pure]
    never re-enters the program and raises nothing; [Calls_back f] may
    invoke the named function (once or many times) behind a §5.3
    callback barrier; [Opaque] may call back into any function and
    raise any interned exception. *)
type cfun_model = Pure | Calls_back of string | Opaque

type spec = {
  sp_id : int;  (** dense id, stable across a build *)
  sp_in : string;  (** function whose body contains the [Handle] *)
  sp : Retrofit_fiber.Ir.handle_spec;
}

type t = {
  program : Retrofit_fiber.Ir.program;
  fn_tbl : (string, Retrofit_fiber.Ir.fn) Hashtbl.t;
  fn_names : string list;  (** in program order *)
  specs : spec array;  (** indexed by [sp_id] *)
  specs_in : (string, spec list) Hashtbl.t;
  cfun_model : string -> cfun_model;
  reachable : (string, unit) Hashtbl.t;
  parent : (string, string) Hashtbl.t;  (** BFS tree edge, child → parent *)
  mutable reach_order : Retrofit_fiber.Ir.fn list;
      (** reachable functions in BFS order from [main] — callers before
          the functions they reach.  The interprocedural fixpoints
          iterate this list: top-down passes forward, bottom-up passes
          reversed, so chains converge in a near-constant number of
          rounds instead of one round per call-graph level. *)
  eff_labels : string list;  (** every effect label mentioned *)
  exn_labels : string list;  (** every exception label, builtins first *)
  has_opaque_cfun : bool;
}

exception Unknown_function of string

val build :
  ?cfun_model:(string -> cfun_model) -> Retrofit_fiber.Ir.program -> t
(** [cfun_model] defaults to treating every external function as
    [Opaque] — the sound default when nothing is known. *)

val fn : t -> string -> Retrofit_fiber.Ir.fn
(** @raise Unknown_function *)

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
    [PerformI] of the function's code, and the [i]-th [Handle] of the
    program (functions in program order) owns the [i]-th handle
    descriptor; {!Resolve.runtime_map} relies on both. *)

val effc_labels : Retrofit_fiber.Ir.handle_spec -> string list
(** The effect labels the installation handles, in clause order. *)

val case_fns : Retrofit_fiber.Ir.handle_spec -> string list
(** The installation's case functions: [retc], then the exception
    clauses', then the effect clauses'. *)

val is_reachable : t -> string -> bool

val path_to : t -> string -> string list
(** Call-graph witness from [main] to the function, outermost first;
    [[name]] if unreachable. *)

val specs_inside : t -> string -> spec list

(** {1 Instruction-level CFG}

    Successor relation over compiled code, shared with the red-zone
    audit.  A [PushtrapI] exposes its handler target as a
    [Trap_handler] edge — entered with the two words the machine pushes
    (payload and exception id) on the operand stack. *)

type edge = Fallthrough | Branch | Trap_handler

val instr_successors :
  code:(int -> Retrofit_fiber.Ir.instr) -> at:int -> (int * edge) list
