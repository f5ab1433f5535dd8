(** Surface abstract syntax for the core calculus of §4.

    The expression grammar follows Fig 2a — integers, variables, OCaml and
    C abstractions, application, arithmetic, [raise], [perform] and
    [match ... with] handlers — plus three conservative conveniences that
    the paper's own executable semantics also needs to express its
    examples: [if]/comparison operators, [let]/[let rec], and first-class
    [continue]/[discontinue] syntax (the latter two are exactly the
    encodings given in §4.2.4, applied during elaboration). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** division by zero raises the built-in label "Division_by_zero" *)
  | Lt
  | Le
  | Eq  (** comparisons yield 1 for true, 0 for false *)

type lam_kind =
  | OCaml_lam  (** λ° — evaluated on the OCaml stack *)
  | C_lam  (** λᶜ — evaluated on the C (system) stack *)

type t =
  | Int of int
  | Var of string
  | Lam of lam_kind * string * t
  | App of t * t
  | Binop of binop * t * t
  | If of t * t * t  (** zero is false, non-zero is true *)
  | Let of string * t * t
  | Letrec of string * string * t * t
      (** [Letrec (f, x, body, k)] is [let rec f x = body in k] *)
  | Raise of string * t
  | Perform of string * t
  | Match of t * handler
  | Continue of t * t  (** [continue k e]; sugar for [(k (λ°x.x)) e] *)
  | Discontinue of t * string * t
      (** [discontinue k l e]; sugar for [(k (λ°x.raise l x)) e] *)

and handler = {
  return_var : string;
  return_body : t;
  exn_cases : (string * string * t) list;  (** label, variable, body *)
  eff_cases : (string * string * string * t) list;
      (** label, variable, continuation variable, body *)
}

val binop_to_string : binop -> string

val to_string : t -> string

val elaborate : t -> t
(** Rewrites [Continue] and [Discontinue] into the §4.2.4 encodings so
    that the machine only ever sees core forms. *)
