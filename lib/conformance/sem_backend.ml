module S = Retrofit_semantics
module Ir = Retrofit_fiber.Ir

let outside what =
  invalid_arg ("Sem_backend.lower: " ^ what ^ " is outside the conformance fragment")

let binop : Ir.binop -> S.Ast.binop = function
  | Ir.Add -> S.Ast.Add
  | Ir.Sub -> S.Ast.Sub
  | Ir.Mul -> S.Ast.Mul
  | Ir.Div -> S.Ast.Div
  | Ir.Lt -> S.Ast.Lt
  | Ir.Le -> S.Ast.Le
  | Ir.Eq -> S.Ast.Eq
  | Ir.Mod | Ir.Ne -> outside "Mod/Ne"

(* Calls are curried applications; a 0-argument function takes a dummy
   unit stand-in.  Currying preserves left-to-right argument order: the
   partial applications interleave, but each argument is still fully
   evaluated before the next one starts. *)
let apply f args =
  match args with
  | [] -> S.Ast.App (S.Ast.Var f, S.Ast.Int 0)
  | args -> List.fold_left (fun acc a -> S.Ast.App (acc, a)) (S.Ast.Var f) args

let rec lower_expr (e : Ir.expr) : S.Ast.t =
  match e with
  | Ir.Int n -> S.Ast.Int n
  | Ir.Var x -> S.Ast.Var x
  | Ir.Binop (op, a, b) -> S.Ast.Binop (binop op, lower_expr a, lower_expr b)
  | Ir.If (c, t, f) -> S.Ast.If (lower_expr c, lower_expr t, lower_expr f)
  | Ir.Let (x, a, b) -> S.Ast.Let (x, lower_expr a, lower_expr b)
  | Ir.Seq (a, b) -> S.Ast.Let ("%seq", lower_expr a, lower_expr b)
  | Ir.Call (f, args) -> apply f (List.map lower_expr args)
  | Ir.Raise (l, e) -> S.Ast.Raise (l, lower_expr e)
  | Ir.Trywith (b, cases) ->
      S.Ast.Match
        ( lower_expr b,
          {
            S.Ast.return_var = "%v";
            return_body = S.Ast.Var "%v";
            exn_cases = List.map (fun (l, x, e) -> (l, x, lower_expr e)) cases;
            eff_cases = [];
          } )
  | Ir.Perform (l, e) -> S.Ast.Perform (l, lower_expr e)
  | Ir.Handle h ->
      (* Evaluate the body arguments before installing the handler:
         the fiber machine pushes them before HandleI switches fibers,
         and the native backend evaluates them before match_with. *)
      let args = h.body_args in
      let names = List.mapi (fun i _ -> Printf.sprintf "%%a%d" i) args in
      let handler =
        {
          S.Ast.return_var = "%r";
          return_body = S.Ast.App (S.Ast.Var h.retc, S.Ast.Var "%r");
          exn_cases =
            List.map
              (fun (l, g) -> (l, "%x", S.Ast.App (S.Ast.Var g, S.Ast.Var "%x")))
              h.exncs;
          eff_cases =
            List.map
              (fun (l, g) ->
                ( l,
                  "%x",
                  "%k",
                  S.Ast.App (S.Ast.App (S.Ast.Var g, S.Ast.Var "%x"), S.Ast.Var "%k")
                ))
              h.effcs;
        }
      in
      let call = apply h.body_fn (List.map (fun x -> S.Ast.Var x) names) in
      List.fold_right2
        (fun x a acc -> S.Ast.Let (x, lower_expr a, acc))
        names args
        (S.Ast.Match (call, handler))
  | Ir.Continue (k, e) -> S.Ast.Continue (lower_expr k, lower_expr e)
  | Ir.Discontinue (k, l, e) -> S.Ast.Discontinue (lower_expr k, l, lower_expr e)
  | Ir.Extcall (c, [ e ]) -> (
      match Fragment.cfun c with
      | Fragment.Ext_id ->
          S.Ast.App (S.Ast.Lam (S.Ast.C_lam, "%x", S.Ast.Var "%x"), lower_expr e)
      | Fragment.Callback f ->
          (* λᶜ whose body applies an OCaml closure: ExtCall then Callback
             in the Fig 2d rules — a fresh OCaml stack over the C frames. *)
          S.Ast.App
            ( S.Ast.Lam (S.Ast.C_lam, "%x", S.Ast.App (S.Ast.Var f, S.Ast.Var "%x")),
              lower_expr e )
      | Fragment.Foreign -> outside ("C function " ^ c))
  | Ir.Extcall (c, _) -> outside ("C function " ^ c)
  | Ir.Repeat _ -> outside "Repeat"

(* Each function is a [let rec] over the rest of the program; multiple
   parameters curry into inner λ°s bound under the recursive binding. *)
let lower_fn (fn : Ir.fn) rest =
  let p0, inner =
    match fn.params with
    | [] -> ("%u", lower_expr fn.body)
    | p :: ps ->
        ( p,
          List.fold_right
            (fun p acc -> S.Ast.Lam (S.Ast.OCaml_lam, p, acc))
            ps (lower_expr fn.body) )
  in
  S.Ast.Letrec (fn.fn_name, p0, inner, rest)

let lower (p : Ir.program) : S.Ast.t =
  List.fold_right lower_fn p.fns (S.Ast.App (S.Ast.Var p.main, S.Ast.Int 0))

let run ?(one_shot = true) (p : Ir.program) : Outcome.t =
  match S.Machine.run ~fuel:5_000_000 ~one_shot (lower p) with
  | S.Machine.Value (S.Syntax.V_int n) -> Outcome.Value n
  | S.Machine.Value _ -> Outcome.Model_error "semantics: non-integer result"
  | S.Machine.Uncaught_exception (l, v) ->
      Outcome.normalize_exn l (match v with S.Syntax.V_int n -> n | _ -> 0)
  | S.Machine.Stuck_config (msg, _) -> Outcome.Model_error ("semantics stuck: " ^ msg)
  | S.Machine.Out_of_fuel _ -> Outcome.Fuel_out
