type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Eq | Ne

type expr =
  | Int of int
  | Var of string
  | Binop of binop * expr * expr
  | If of expr * expr * expr
  | Let of string * expr * expr
  | Seq of expr * expr
  | Call of string * expr list
  | Raise of string * expr
  | Trywith of expr * (string * string * expr) list
  | Perform of string * expr
  | Handle of handle_spec
  | Continue of expr * expr
  | Discontinue of expr * string * expr
  | Extcall of string * expr list
  | Repeat of expr * expr

and handle_spec = {
  body_fn : string;
  body_args : expr list;
  retc : string;
  exncs : (string * string) list;
  effcs : (string * string) list;
}

type fn = { fn_name : string; params : string list; body : expr }

type program = { fns : fn list; main : string }

type instr =
  | Const of int
  | Load of int
  | Store of int
  | Dup
  | Pop
  | Bin of binop
  | Jump of int
  | JumpIfNot of int
  | CallI of int
  | Ret
  | PushtrapI of int
  | PoptrapI
  | RaiseI of int
  | ReraiseI
  | PerformI of int
  | HandleI of int
  | ContinueI
  | DiscontinueI of int
  | ExtcallI of int * int
  | Stop

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Lt -> "lt"
  | Le -> "le"
  | Eq -> "eq"
  | Ne -> "ne"

let instr_to_string = function
  | Const n -> Printf.sprintf "const %d" n
  | Load i -> Printf.sprintf "load %d" i
  | Store i -> Printf.sprintf "store %d" i
  | Dup -> "dup"
  | Pop -> "pop"
  | Bin op -> binop_to_string op
  | Jump a -> Printf.sprintf "jump %d" a
  | JumpIfNot a -> Printf.sprintf "jumpifnot %d" a
  | CallI f -> Printf.sprintf "call f%d" f
  | Ret -> "ret"
  | PushtrapI a -> Printf.sprintf "pushtrap %d" a
  | PoptrapI -> "poptrap"
  | RaiseI e -> Printf.sprintf "raise e%d" e
  | ReraiseI -> "reraise"
  | PerformI e -> Printf.sprintf "perform eff%d" e
  | HandleI h -> Printf.sprintf "handle h%d" h
  | ContinueI -> "continue"
  | DiscontinueI e -> Printf.sprintf "discontinue e%d" e
  | ExtcallI (c, n) -> Printf.sprintf "extcall c%d/%d" c n
  | Stop -> "stop"

(* ------------------------------------------------------------------ *)
(* Printing.

   The printer is injective on the constructor structure: every [expr]
   form prints with a distinct head symbol and every subterm is
   parenthesised, so two structurally different expressions can only
   print alike if their embedded names collide (names are taken verbatim
   and must not contain spaces or parentheses).  The analyzer's
   diagnostics quote these strings, and a QCheck property in the test
   suite pins the injectivity. *)

let rec expr_to_string = function
  | Int n -> Printf.sprintf "(int %d)" n
  | Var x -> Printf.sprintf "(var %s)" x
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (binop_to_string op) (expr_to_string a)
        (expr_to_string b)
  | If (c, t, f) ->
      Printf.sprintf "(if %s %s %s)" (expr_to_string c) (expr_to_string t)
        (expr_to_string f)
  | Let (x, e1, e2) ->
      Printf.sprintf "(let (%s %s) %s)" x (expr_to_string e1) (expr_to_string e2)
  | Seq (a, b) -> Printf.sprintf "(seq %s %s)" (expr_to_string a) (expr_to_string b)
  | Call (f, args) ->
      Printf.sprintf "(call %s%s)" f (args_to_string args)
  | Raise (l, e) -> Printf.sprintf "(raise %s %s)" l (expr_to_string e)
  | Trywith (body, cases) ->
      Printf.sprintf "(try %s%s)" (expr_to_string body)
        (String.concat ""
           (List.map
              (fun (l, x, e) ->
                Printf.sprintf " (case %s %s %s)" l x (expr_to_string e))
              cases))
  | Perform (l, e) -> Printf.sprintf "(perform %s %s)" l (expr_to_string e)
  | Handle h ->
      Printf.sprintf "(handle (body %s%s) (ret %s)%s%s)" h.body_fn
        (args_to_string h.body_args)
        h.retc
        (String.concat ""
           (List.map (fun (l, g) -> Printf.sprintf " (exn %s %s)" l g) h.exncs))
        (String.concat ""
           (List.map (fun (l, g) -> Printf.sprintf " (eff %s %s)" l g) h.effcs))
  | Continue (k, v) ->
      Printf.sprintf "(continue %s %s)" (expr_to_string k) (expr_to_string v)
  | Discontinue (k, l, e) ->
      Printf.sprintf "(discontinue %s %s %s)" (expr_to_string k) l
        (expr_to_string e)
  | Extcall (c, args) -> Printf.sprintf "(extcall %s%s)" c (args_to_string args)
  | Repeat (c, b) ->
      Printf.sprintf "(repeat %s %s)" (expr_to_string c) (expr_to_string b)

and args_to_string args =
  String.concat "" (List.map (fun a -> " " ^ expr_to_string a) args)

let fn_to_string f =
  Printf.sprintf "(fn %s (%s) %s)" f.fn_name
    (String.concat " " f.params)
    (expr_to_string f.body)

let program_to_string p =
  String.concat "\n" (List.map fn_to_string p.fns @ [ "(main " ^ p.main ^ ")" ])

let call name args = Call (name, args)

let fn fn_name params body = { fn_name; params; body }
