type value =
  | V_int of int
  | V_cont of continuation
  | V_clos of closure
  | V_eff of string * continuation
  | V_exn of string

and closure = {
  kind : Ast.lam_kind;
  self : string option;
  param : string;
  body : Ast.t;
  env : env;
}

and env = (string * value) list

and frame =
  | F_arg of Ast.t * env
  | F_fun of value
  | F_op1 of Ast.binop * Ast.t * env
  | F_op2 of Ast.binop * int
  | F_if of Ast.t * Ast.t * env
  | F_let of string * Ast.t * env

and handler_closure = Ast.handler * env

and fiber = frame list * handler_closure

and continuation = fiber list

and c_stack = { c_frames : frame list; c_under : ocaml_stack }

and ocaml_stack =
  | O_empty
  | O_stack of { cont : continuation; o_under : c_stack }

and stack = C_stack of c_stack | OCaml_stack of ocaml_stack

type term = Expr of Ast.t | Value of value

type config = { term : term; env : env; stack : stack }

let identity_handler : handler_closure =
  ( {
      Ast.return_var = "%v";
      return_body = Ast.Var "%v";
      exn_cases = [];
      eff_cases = [];
    },
    [] )

let identity_fiber : fiber = ([], identity_handler)

let is_identity_handler ((h, env) : handler_closure) =
  env = []
  && h.Ast.exn_cases = []
  && h.Ast.eff_cases = []
  && h.Ast.return_body = Ast.Var h.Ast.return_var

(* Programs start on the C stack, and the program body is entered through
   a callback — exactly how caml_startup invokes caml_program.  The
   wrapper application makes the Callback rule fire first, giving the
   program an OCaml stack with the callback's identity fiber at its
   bottom. *)
let initial e =
  {
    term = Expr (Ast.App (Ast.Lam (Ast.OCaml_lam, "%start", e), Ast.Int 0));
    env = [];
    stack = C_stack { c_frames = []; c_under = O_empty };
  }

let env_lookup env x = List.assoc_opt x env

let env_bind env x v = (x, v) :: env

open Format

let rec pp_value fmt = function
  | V_int n -> fprintf fmt "%d" n
  | V_cont k -> fprintf fmt "<cont:%d fibers>" (List.length k)
  | V_clos { kind; self; param; _ } ->
      let tag = match kind with Ast.OCaml_lam -> "λo" | Ast.C_lam -> "λc" in
      let rec_tag = match self with Some f -> "rec " ^ f ^ "." | None -> "" in
      fprintf fmt "<%s%s %s. ...>" rec_tag tag param
  | V_eff (l, k) -> fprintf fmt "(eff %s <%d fibers>)" l (List.length k)
  | V_exn l -> fprintf fmt "(exn %s)" l

and pp_frame fmt = function
  | F_arg (e, _) -> fprintf fmt "<arg %s>" (Ast.to_string e)
  | F_fun v -> fprintf fmt "<fun %a>" pp_value v
  | F_op1 (op, e, _) -> fprintf fmt "<%s _ %s>" (Ast.binop_to_string op) (Ast.to_string e)
  | F_op2 (op, n) -> fprintf fmt "<%d %s _>" n (Ast.binop_to_string op)
  | F_if (_, _, _) -> fprintf fmt "<if>"
  | F_let (x, _, _) -> fprintf fmt "<let %s>" x

let pp_frames fmt frames =
  fprintf fmt "[%a]"
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "; ") pp_frame)
    frames

let pp_fiber fmt ((frames, _) : fiber) = fprintf fmt "fiber%a" pp_frames frames

let rec pp_c_stack fmt { c_frames; c_under } =
  fprintf fmt "C%a :: %a" pp_frames c_frames pp_ocaml_stack c_under

and pp_ocaml_stack fmt = function
  | O_empty -> fprintf fmt "•"
  | O_stack { cont; o_under } ->
      fprintf fmt "O[%a] :: %a"
        (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt " ◁ ") pp_fiber)
        cont pp_c_stack o_under

let pp_stack fmt = function
  | C_stack g -> pp_c_stack fmt g
  | OCaml_stack w -> pp_ocaml_stack fmt w

let pp_term fmt = function
  | Expr e -> fprintf fmt "%s" (Ast.to_string e)
  | Value v -> pp_value fmt v

let pp_config fmt { term; env = _; stack } =
  fprintf fmt "@[<v2>‖ %a@ ⊢ %a ‖@]" pp_term term pp_stack stack

let value_to_string v = asprintf "%a" pp_value v

let rec c_fibers { c_under; _ } = ocaml_fibers c_under

and ocaml_fibers = function
  | O_empty -> 0
  | O_stack { cont; o_under } -> List.length cont + c_fibers o_under

let fiber_count = function
  | C_stack g -> c_fibers g
  | OCaml_stack w -> ocaml_fibers w
