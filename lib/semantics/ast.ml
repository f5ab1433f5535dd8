type binop = Add | Sub | Mul | Div | Lt | Le | Eq

type lam_kind = OCaml_lam | C_lam

type t =
  | Int of int
  | Var of string
  | Lam of lam_kind * string * t
  | App of t * t
  | Binop of binop * t * t
  | If of t * t * t
  | Let of string * t * t
  | Letrec of string * string * t * t
  | Raise of string * t
  | Perform of string * t
  | Match of t * handler
  | Continue of t * t
  | Discontinue of t * string * t

and handler = {
  return_var : string;
  return_body : t;
  exn_cases : (string * string * t) list;
  eff_cases : (string * string * string * t) list;
}

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "="

(* Precedences: match/fun/let/if/raise/perform 0, comparison 1,
   additive 2, multiplicative 3, application 4, atom 5. *)
let binop_prec = function
  | Lt | Le | Eq -> 1
  | Add | Sub -> 2
  | Mul | Div -> 3

let rec pp_prec prec fmt e =
  let open Format in
  let paren p body =
    if p < prec then fprintf fmt "(%t)" body else body fmt
  in
  match e with
  | Int n -> if n < 0 then fprintf fmt "(%d)" n else fprintf fmt "%d" n
  | Var x -> pp_print_string fmt x
  | Lam (OCaml_lam, x, b) ->
      paren 0 (fun fmt -> fprintf fmt "@[<2>fun %s ->@ %a@]" x (pp_prec 0) b)
  | Lam (C_lam, x, b) ->
      paren 0 (fun fmt -> fprintf fmt "@[<2>cfun %s ->@ %a@]" x (pp_prec 0) b)
  | App (f, a) ->
      paren 4 (fun fmt -> fprintf fmt "@[<2>%a@ %a@]" (pp_prec 4) f (pp_prec 5) a)
  | Binop (op, a, b) ->
      let p = binop_prec op in
      paren p (fun fmt ->
          fprintf fmt "@[<2>%a %s@ %a@]" (pp_prec p) a (binop_to_string op)
            (pp_prec (p + 1)) b)
  | If (c, t, f) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<2>if %a@ then %a@ else %a@]" (pp_prec 0) c (pp_prec 0) t
            (pp_prec 0) f)
  | Let (x, e1, e2) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<v>@[<2>let %s =@ %a in@]@ %a@]" x (pp_prec 0) e1
            (pp_prec 0) e2)
  | Letrec (f, x, e1, e2) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<v>@[<2>let rec %s %s =@ %a in@]@ %a@]" f x (pp_prec 0) e1
            (pp_prec 0) e2)
  (* prefix forms (raise/perform/continue/discontinue) parse at the
     prefix level: they cannot appear bare in function position or as a
     function's argument, so parenthesise in any context above the
     multiplicative level *)
  | Raise (l, e) -> paren 3 (fun fmt -> fprintf fmt "@[<2>raise %s@ %a@]" l (pp_prec 5) e)
  | Perform (l, e) ->
      paren 3 (fun fmt -> fprintf fmt "@[<2>perform %s@ %a@]" l (pp_prec 5) e)
  | Continue (k, e) ->
      paren 3 (fun fmt ->
          fprintf fmt "@[<2>continue %a@ %a@]" (pp_prec 5) k (pp_prec 5) e)
  | Discontinue (k, l, e) ->
      paren 3 (fun fmt ->
          fprintf fmt "@[<2>discontinue %a %s@ %a@]" (pp_prec 5) k l (pp_prec 5) e)
  | Match (e, h) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<v>@[<2>match %a with@]" (pp_prec 0) e;
          fprintf fmt "@ | %s -> %a" h.return_var (pp_prec 0) h.return_body;
          List.iter
            (fun (l, x, b) ->
              fprintf fmt "@ | exception %s %s -> %a" l x (pp_prec 0) b)
            h.exn_cases;
          List.iter
            (fun (l, x, k, b) ->
              fprintf fmt "@ | effect (%s %s) %s -> %a" l x k (pp_prec 0) b)
            h.eff_cases;
          fprintf fmt "@ end@]")

let pp fmt e = pp_prec 0 fmt e

let to_string e = Format.asprintf "%a" pp e

(* §4.2.4: continue k e = (k (λ°x.x)) e
           discontinue k l e = (k (λ°x.raise l x)) e *)
let rec elaborate = function
  | (Int _ | Var _) as e -> e
  | Lam (kind, x, b) -> Lam (kind, x, elaborate b)
  | App (f, a) -> App (elaborate f, elaborate a)
  | Binop (op, a, b) -> Binop (op, elaborate a, elaborate b)
  | If (c, t, f) -> If (elaborate c, elaborate t, elaborate f)
  | Let (x, e1, e2) -> Let (x, elaborate e1, elaborate e2)
  | Letrec (f, x, e1, e2) -> Letrec (f, x, elaborate e1, elaborate e2)
  | Raise (l, e) -> Raise (l, elaborate e)
  | Perform (l, e) -> Perform (l, elaborate e)
  | Continue (k, e) ->
      App (App (elaborate k, Lam (OCaml_lam, "%x", Var "%x")), elaborate e)
  | Discontinue (k, l, e) ->
      App (App (elaborate k, Lam (OCaml_lam, "%x", Raise (l, Var "%x"))), elaborate e)
  | Match (e, h) ->
      Match
        ( elaborate e,
          {
            return_var = h.return_var;
            return_body = elaborate h.return_body;
            exn_cases = List.map (fun (l, x, b) -> (l, x, elaborate b)) h.exn_cases;
            eff_cases =
              List.map (fun (l, x, k, b) -> (l, x, k, elaborate b)) h.eff_cases;
          } )
