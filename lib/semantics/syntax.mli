(** Machine domains of the operational semantics (Fig 2a).

    The program stack is an alternating sequence of C and OCaml stacks
    terminating in the empty OCaml stack [Empty].  An OCaml stack carries
    a {e continuation} — a list of {e fibers} — and each fiber pairs a
    frame list with a handler closure.  These are exactly the shapes the
    runtime of §5 implements with heap-allocated fibers. *)

type value =
  | V_int of int
  | V_cont of continuation  (** first-class captured continuation [k] *)
  | V_clos of closure
  | V_eff of string * continuation  (** [eff l k] — an effect in flight *)
  | V_exn of string  (** [exn l] — an exception in flight *)

and closure = {
  kind : Ast.lam_kind;
  self : string option;  (** [Some f] for recursive closures *)
  param : string;
  body : Ast.t;
  env : env;
}

and env = (string * value) list
(** Environments are association lists; lookup takes the most recent
    binding, which implements shadowing. *)

and frame =
  | F_arg of Ast.t * env  (** ⟨e ε⟩ₐ — pending argument *)
  | F_fun of value  (** ⟨v⟩f — evaluated function awaiting its argument *)
  | F_op1 of Ast.binop * Ast.t * env  (** ⟨⊙ e ε⟩b1 *)
  | F_op2 of Ast.binop * int  (** ⟨⊙ n⟩b2 *)
  | F_if of Ast.t * Ast.t * env  (** pending branches of a conditional *)
  | F_let of string * Ast.t * env  (** pending body of a let binding *)

and handler_closure = Ast.handler * env  (** η = (h, ε) *)

and fiber = frame list * handler_closure  (** φ = (ψ, η) *)

and continuation = fiber list  (** k = \[\] | φ ◁ k *)

and c_stack = { c_frames : frame list; c_under : ocaml_stack }  (** ⌈ψ, ω⌉c *)

and ocaml_stack =
  | O_empty  (** • *)
  | O_stack of { cont : continuation; o_under : c_stack }  (** ⌈k, γ⌉o *)

and stack = C_stack of c_stack | OCaml_stack of ocaml_stack

type term = Expr of Ast.t | Value of value

type config = { term : term; env : env; stack : stack }
(** ℭ = ‖τ, ε, σ‖ *)

val identity_fiber : fiber
(** [(\[\], ({return x ↦ x}, ∅))] — the fiber with the identity handler
    closure, used for the empty continuation pushed by Perform and for
    callback fibers. *)

val is_identity_handler : handler_closure -> bool
(** Recognises (up to the return variable's name) the identity handler
    installed by Callback, as required by the RetToC and ExnFwdC side
    conditions. *)

val initial : Ast.t -> config
(** ‖(λ°x.e) 0, ∅, ⌈\[\], •⌉c‖ — programs start on the C stack and enter
    the program body through a callback, mirroring how [caml_startup]
    invokes [caml_program] in a real executable (Fig 1d).  The Callback
    rule then gives the program an OCaml stack whose bottom fiber is the
    identity fiber. *)

val env_lookup : env -> string -> value option

val env_bind : env -> string -> value -> env

val pp_config : Format.formatter -> config -> unit

val value_to_string : value -> string

val fiber_count : stack -> int
(** Number of fibers on the current OCaml stack segments. *)
