(** Source language and bytecode of the fiber machine.

    Programs for the runtime model are written in a small first-order
    language with named functions, exceptions and effect handlers, and
    compiled to a bytecode whose execution model mirrors the native-code
    runtime of §5: calls push a return address into stack memory, trap
    frames form a linked list threaded through the stack (§2.2), and
    [Handle]/[Perform]/[Continue] manage heap-allocated fibers.

    Handler bodies and cases are {e named functions} rather than
    closures: the model has no closure conversion, so any context a
    handler body needs is passed explicitly through [body_args].  This
    loses no generality for the paper's benchmarks and keeps frame
    layouts transparent. *)

type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Eq | Ne

type expr =
  | Int of int
  | Var of string
  | Binop of binop * expr * expr
  | If of expr * expr * expr  (** 0 is false *)
  | Let of string * expr * expr
  | Seq of expr * expr
  | Call of string * expr list
  | Raise of string * expr
  | Trywith of expr * (string * string * expr) list
      (** [Trywith (body, [label, var, handler; ...])]; unmatched labels
          re-raise *)
  | Perform of string * expr
  | Handle of handle_spec
  | Continue of expr * expr  (** continuation value, resume value *)
  | Discontinue of expr * string * expr  (** continuation, label, payload *)
  | Extcall of string * expr list  (** call a registered C function *)
  | Repeat of expr * expr
      (** [Repeat (count, body)]: evaluate [body] that many times and
          yield 0 — a counted loop with a back-edge, compiled without
          calls, like an OCaml [for] loop.  The iteration-style micro
          benchmarks use it so their loop bodies carry no prologue
          checks, matching the paper's for-loop benchmarks. *)

and handle_spec = {
  body_fn : string;
  body_args : expr list;
  retc : string;  (** name of a 1-argument function *)
  exncs : (string * string) list;  (** label → 1-argument function *)
  effcs : (string * string) list;  (** label → 2-argument function (x, k) *)
}

type fn = { fn_name : string; params : string list; body : expr }

type program = { fns : fn list; main : string }
(** [main] names a 0-argument function. *)

(** {1 Bytecode} *)

type instr =
  | Const of int
  | Load of int  (** push local slot *)
  | Store of int  (** pop into local slot *)
  | Dup
  | Pop
  | Bin of binop
  | Jump of int  (** absolute code address *)
  | JumpIfNot of int  (** pops; jumps when 0 *)
  | CallI of int  (** function index *)
  | Ret
  | PushtrapI of int  (** absolute handler address *)
  | PoptrapI
  | RaiseI of int  (** exception id; payload popped *)
  | ReraiseI  (** pops id then payload *)
  | PerformI of int  (** effect id; payload popped; result pushed on resume *)
  | HandleI of int  (** handle-spec index; body args popped *)
  | ContinueI  (** pops resume value then continuation *)
  | DiscontinueI of int  (** exception id; pops payload then continuation *)
  | ExtcallI of int * int  (** C-function index, argument count *)
  | Stop  (** terminates the program with the popped value *)

val instr_to_string : instr -> string
(** Each constructor prints with a distinct head, so the rendering is
    injective on structure. *)

(** {1 Printing}

    Fully parenthesised, s-expression-like renderings.  Every [expr]
    constructor prints with a distinct head symbol and every subterm is
    parenthesised, so the printer is injective as long as the embedded
    names contain no spaces or parentheses (a QCheck property pins
    this).  {!Retrofit_analysis} diagnostics quote these strings. *)

val expr_to_string : expr -> string

val program_to_string : program -> string

(** {1 Convenience constructors} *)

val call : string -> expr list -> expr

val fn : string -> string list -> expr -> fn
