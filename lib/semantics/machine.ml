open Syntax

type outcome =
  | Step of config
  | Done of value
  | Uncaught of string * value
  | Stuck of string

(* The exception labels of rule EffUnHn, of division by zero, and of a
   second resume under the one-shot discipline (the runtime's
   behaviour, §5.2). *)
let unhandled_label = "Unhandled"

let division_label = "Division_by_zero"

let one_shot_label = "Invalid_argument"

(* The semantics of Fig 2 is multi-shot: continuations are immutable
   values.  The optional one-shot discipline overlays §5's linearity
   restriction: resuming a continuation a second time raises
   Invalid_argument at the resume site, exactly as the runtime's
   continuation-taking primitive does.  Physical identity is the right
   notion here — every capture (EffHn, EffFwd) allocates a fresh cons
   cell, so [memq] distinguishes continuations that happen to share
   structure. *)
type discipline = { mutable resumed : Syntax.continuation list }

let one_shot_discipline () = { resumed = [] }

(* ------------------------------------------------------------------ *)
(* Administrative reductions (Fig 2c): operate on the current frame
   list and are shared by the C and OCaml steps. *)

type admin_result =
  | A_step of term * env * frame list
  | A_none  (** not an administrative redex; try segment-specific rules *)
  | A_stuck of string

let bind_closure (c : closure) arg =
  let env = env_bind c.env c.param arg in
  match c.self with
  | None -> env
  | Some f -> env_bind env f (V_clos c)

let eval_binop op n1 n2 =
  match (op : Ast.binop) with
  | Add -> Some (n1 + n2)
  | Sub -> Some (n1 - n2)
  | Mul -> Some (n1 * n2)
  | Div -> if n2 = 0 then None else Some (n1 / n2)
  | Lt -> Some (if n1 < n2 then 1 else 0)
  | Le -> Some (if n1 <= n2 then 1 else 0)
  | Eq -> Some (if n1 = n2 then 1 else 0)

let admin term env frames : admin_result =
  match term with
  | Expr e -> (
      match e with
      | Ast.Int n -> A_step (Value (V_int n), env, frames)
      | Ast.Var x -> (
          (* Var *)
          match env_lookup env x with
          | Some v -> A_step (Value v, env, frames)
          | None -> A_stuck (Printf.sprintf "unbound variable %s" x))
      | Ast.Lam (kind, param, body) ->
          (* App2: abstractions evaluate to closures *)
          A_step (Value (V_clos { kind; self = None; param; body; env }), env, frames)
      | Ast.Letrec (f, param, body, k) ->
          let clos = { kind = Ast.OCaml_lam; self = Some f; param; body; env } in
          A_step (Expr k, env_bind env f (V_clos clos), frames)
      | Ast.Let (x, e1, e2) -> A_step (Expr e1, env, F_let (x, e2, env) :: frames)
      | Ast.Binop (op, e1, e2) ->
          (* Arith1 *)
          A_step (Expr e1, env, F_op1 (op, e2, env) :: frames)
      | Ast.If (c, t, f) -> A_step (Expr c, env, F_if (t, f, env) :: frames)
      | Ast.App (e1, e2) ->
          (* App1 *)
          A_step (Expr e1, env, F_arg (e2, env) :: frames)
      | Ast.Raise (l, e) ->
          (* Raise *)
          A_step (Expr e, env, F_fun (V_exn l) :: frames)
      | Ast.Perform (l, e) ->
          (* Perform: the effect value carries the empty continuation
             [([], id)] *)
          A_step (Expr e, env, F_fun (V_eff (l, [ identity_fiber ])) :: frames)
      | Ast.Match _ ->
          (* Handle is an OCaml-only reduction *)
          A_none
      | Ast.Continue _ | Ast.Discontinue _ ->
          A_stuck "continue/discontinue must be elaborated before execution")
  | Value v -> (
      match (v, frames) with
      | _, F_let (x, e2, env') :: rest -> A_step (Expr e2, env_bind env' x v, rest)
      | V_int n, F_op1 (op, e2, env') :: rest ->
          (* Arith2 *)
          A_step (Expr e2, env', F_op2 (op, n) :: rest)
      | V_int n2, F_op2 (op, n1) :: rest -> (
          (* Arith3; division by zero raises Division_by_zero with the
             dividend as payload *)
          match eval_binop op n1 n2 with
          | Some n -> A_step (Value (V_int n), env, rest)
          | None ->
              A_step (Value (V_int n1), env, F_fun (V_exn division_label) :: rest))
      | V_int n, F_if (t, f, env') :: rest ->
          A_step (Expr (if n <> 0 then t else f), env', rest)
      | _, F_op1 _ :: _ | _, F_op2 _ :: _ | _, F_if _ :: _ ->
          A_stuck "arithmetic or conditional on a non-integer"
      | V_cont k, F_arg (e1, env1) :: (F_arg _ :: _ as below) ->
          (* Resume1 *)
          A_step (Expr e1, env1, F_fun (V_cont k) :: below)
      | V_clos c, F_fun (V_cont k) :: F_arg (e2, env2) :: rest ->
          (* Resume2 *)
          A_step (Expr e2, env2, F_fun (V_cont k) :: F_fun (V_clos c) :: rest)
      | V_clos _, F_arg (e2, env2) :: rest ->
          (* App3 *)
          A_step (Expr e2, env2, F_fun v :: rest)
      | (V_int _ | V_eff _ | V_exn _), F_arg _ :: _ ->
          A_stuck "application of a non-function"
      | V_cont _, F_arg _ :: _ ->
          A_stuck "continuation applied outside continue/discontinue"
      | _ -> A_none)

(* ------------------------------------------------------------------ *)
(* Handler case lookup *)

let find_exn_case ((h, henv) : handler_closure) l =
  List.find_map
    (fun (l', x, body) -> if l' = l then Some (x, body, henv) else None)
    h.Ast.exn_cases

let find_eff_case ((h, henv) : handler_closure) l =
  List.find_map
    (fun (l', x, k, body) -> if l' = l then Some (x, k, body, henv) else None)
    h.Ast.eff_cases

(* ------------------------------------------------------------------ *)
(* C reductions (Fig 2d) *)

let step_c term env c_frames (c_under : ocaml_stack) : outcome =
  match admin term env c_frames with
  | A_step (term, env, c_frames) ->
      Step { term; env; stack = C_stack { c_frames; c_under } }
  | A_stuck msg -> Stuck msg
  | A_none -> (
      match (term, c_frames) with
      | Value v, F_fun (V_clos ({ kind = Ast.C_lam; _ } as c)) :: rest ->
          (* CallC: C functions run on the current C stack *)
          Step
            {
              term = Expr c.body;
              env = bind_closure c v;
              stack = C_stack { c_frames = rest; c_under };
            }
      | Value v, F_fun (V_clos ({ kind = Ast.OCaml_lam; _ } as c)) :: rest ->
          (* Callback: entering OCaml from C creates a fresh OCaml stack
             with a single identity fiber over the remaining C frames *)
          Step
            {
              term = Expr c.body;
              env = bind_closure c v;
              stack =
                OCaml_stack
                  (O_stack
                     {
                       cont = [ identity_fiber ];
                       o_under = { c_frames = rest; c_under };
                     });
            }
      | Value v, [] -> (
          (* RetToO, or program completion when no OCaml stack remains *)
          match c_under with
          | O_empty -> Done v
          | O_stack _ -> Step { term = Value v; env; stack = OCaml_stack c_under })
      | Value v, F_fun (V_exn l) :: _ -> (
          (* ExnFwdO: unwind all remaining C frames, re-raising on the
             OCaml stack below; with no OCaml stack this is
             fatal_uncaught *)
          match c_under with
          | O_empty -> Uncaught (l, v)
          | O_stack { cont = (fr, h) :: k; o_under } ->
              Step
                {
                  term = Value v;
                  env;
                  stack =
                    OCaml_stack
                      (O_stack
                         { cont = (F_fun (V_exn l) :: fr, h) :: k; o_under });
                }
          | O_stack { cont = []; _ } -> Stuck "OCaml stack with no fiber")
      | Value _, F_fun (V_eff (l, _)) :: _ ->
          (* Effects must not cross C frames (§3.1); the real runtime
             cannot even express this state, so the machine is stuck. *)
          Stuck (Printf.sprintf "effect %s performed on the C stack" l)
      | Value _, F_fun (V_cont _) :: _ ->
          Stuck "continuation resumed on the C stack"
      | Value _, F_fun (V_int _) :: _ -> Stuck "application of a non-function"
      | Expr (Ast.Match _), _ ->
          Stuck "effect handler installed on the C stack"
      | _ -> Stuck "no C reduction applies")

(* ------------------------------------------------------------------ *)
(* OCaml reductions (Fig 2e): the current stack is ⌈(ψ,η)◁k, γ⌉o *)

let step_o disc term env (cont : continuation) (o_under : c_stack) : outcome =
  match cont with
  | [] -> Stuck "OCaml stack with no fiber"
  | (frames, handler) :: k_rest -> (
      let rebuild term env frames =
        Step
          {
            term;
            env;
            stack = OCaml_stack (O_stack { cont = (frames, handler) :: k_rest; o_under });
          }
      in
      match admin term env frames with
      | A_step (term, env, frames) -> rebuild term env frames
      | A_stuck msg -> Stuck msg
      | A_none -> (
          match (term, frames) with
          | Expr (Ast.Match (e, h)), _ ->
              (* Handle: push a fresh fiber carrying the handler *)
              Step
                {
                  term = Expr e;
                  env;
                  stack =
                    OCaml_stack
                      (O_stack
                         { cont = ([], (h, env)) :: cont; o_under });
                }
          | Value v, F_fun (V_cont k) :: F_fun (V_clos ({ kind = Ast.OCaml_lam; _ } as c)) :: rest
            -> (
              (* Resume: reinstate the captured fibers in front of the
                 current stack and run the resumption closure on top.
                 Under the one-shot discipline a second resume instead
                 raises Invalid_argument at the resume site (§5.2). *)
              match disc with
              | Some d when List.memq k d.resumed ->
                  rebuild (Expr (Ast.Raise (one_shot_label, Ast.Int 0))) env rest
              | _ ->
                  (match disc with
                  | Some d -> d.resumed <- k :: d.resumed
                  | None -> ());
                  Step
                    {
                      term = Expr c.body;
                      env = bind_closure c v;
                      stack =
                        OCaml_stack
                          (O_stack { cont = k @ ((rest, handler) :: k_rest); o_under });
                    })
          | Value v, F_fun (V_clos ({ kind = Ast.OCaml_lam; _ } as c)) :: rest ->
              (* CallO *)
              Step
                {
                  term = Expr c.body;
                  env = bind_closure c v;
                  stack =
                    OCaml_stack
                      (O_stack { cont = (rest, handler) :: k_rest; o_under });
                }
          | Value v, F_fun (V_clos ({ kind = Ast.C_lam; _ } as c)) :: rest ->
              (* ExtCall: run the C function on a fresh C segment *)
              Step
                {
                  term = Expr c.body;
                  env = bind_closure c v;
                  stack =
                    C_stack
                      {
                        c_frames = [];
                        c_under =
                          O_stack
                            { cont = (rest, handler) :: k_rest; o_under };
                      };
                }
          | Value v, [] -> (
              match k_rest with
              | [] ->
                  if is_identity_handler handler then
                    (* RetToC *)
                    Step { term = Value v; env; stack = C_stack o_under }
                  else
                    Stuck "bottom fiber does not carry the identity handler"
              | _ ->
                  (* RetFib: evaluate the return case on the fiber below *)
                  let h, henv = handler in
                  Step
                    {
                      term = Expr h.Ast.return_body;
                      env = env_bind henv h.Ast.return_var v;
                      stack = OCaml_stack (O_stack { cont = k_rest; o_under });
                    })
          | Value v, F_fun (V_exn l) :: _ -> (
              match find_exn_case handler l with
              | Some (x, body, henv) ->
                  (* ExnHn: unwind the current fiber, run the case *)
                  Step
                    {
                      term = Expr body;
                      env = env_bind henv x v;
                      stack = OCaml_stack (O_stack { cont = k_rest; o_under });
                    }
              | None -> (
                  match k_rest with
                  | (fr', h') :: k' ->
                      (* ExnFwdFib *)
                      Step
                        {
                          term = Value v;
                          env;
                          stack =
                            OCaml_stack
                              (O_stack
                                 {
                                   cont = (F_fun (V_exn l) :: fr', h') :: k';
                                   o_under;
                                 });
                        }
                  | [] ->
                      (* ExnFwdC: the bottom fiber is the callback's
                         identity fiber; forward onto the C frames *)
                      Step
                        {
                          term = Value v;
                          env;
                          stack =
                            C_stack
                              {
                                c_frames = F_fun (V_exn l) :: o_under.c_frames;
                                c_under = o_under.c_under;
                              };
                        }))
          | Value v, F_fun (V_eff (l, k)) :: psi -> (
              let captured = k @ [ (psi, handler) ] in
              match find_eff_case handler l with
              | Some (x, r, body, henv) ->
                  (* EffHn: deep handler — the captured continuation
                     includes the handling fiber itself *)
                  let env' = env_bind (env_bind henv r (V_cont captured)) x v in
                  Step
                    {
                      term = Expr body;
                      env = env';
                      stack = OCaml_stack (O_stack { cont = k_rest; o_under });
                    }
              | None -> (
                  match k_rest with
                  | (fr', h') :: k' ->
                      (* EffFwd *)
                      Step
                        {
                          term = Value v;
                          env;
                          stack =
                            OCaml_stack
                              (O_stack
                                 {
                                   cont =
                                     (F_fun (V_eff (l, captured)) :: fr', h') :: k';
                                   o_under;
                                 });
                        }
                  | [] ->
                      (* EffUnHn: reinstate the captured continuation and
                         raise Unhandled at the perform site *)
                      Step
                        {
                          term = Expr (Ast.Raise (unhandled_label, Ast.Int 0));
                          env = [];
                          stack =
                            OCaml_stack (O_stack { cont = captured; o_under });
                        }))
          | Value _, F_fun (V_int _) :: _ -> Stuck "application of a non-function"
          | Value _, F_fun (V_cont _) :: _ ->
              Stuck "continuation resumed without a resumption closure"
          | _ -> Stuck "no OCaml reduction applies"))

let step_disciplined disc (cfg : config) : outcome =
  match cfg.stack with
  | C_stack { c_frames; c_under } -> step_c cfg.term cfg.env c_frames c_under
  | OCaml_stack O_empty -> Stuck "current stack is the empty OCaml stack"
  | OCaml_stack (O_stack { cont; o_under }) ->
      step_o disc cfg.term cfg.env cont o_under

let step cfg = step_disciplined None cfg

(* ------------------------------------------------------------------ *)
(* Driver *)

type result =
  | Value of Syntax.value
  | Uncaught_exception of string * Syntax.value
  | Stuck_config of string * Syntax.config
  | Out_of_fuel of Syntax.config

let run_config ?(fuel = 10_000_000) ?trace ?(one_shot = false) cfg =
  let disc = if one_shot then Some (one_shot_discipline ()) else None in
  let count = ref 0 in
  let emit cfg = match trace with Some f -> f cfg | None -> () in
  let rec go cfg fuel =
    emit cfg;
    if fuel = 0 then (!count, Out_of_fuel cfg)
    else begin
      match step_disciplined disc cfg with
      | Step cfg' ->
          incr count;
          go cfg' (fuel - 1)
      | Done v -> (!count, Value v)
      | Uncaught (l, v) -> (!count, Uncaught_exception (l, v))
      | Stuck msg -> (!count, Stuck_config (msg, cfg))
    end
  in
  go cfg fuel

let steps_taken e = run_config (initial (Ast.elaborate e))

let run ?fuel ?trace ?one_shot e =
  snd (run_config ?fuel ?trace ?one_shot (initial (Ast.elaborate e)))

let run_string src = run (Parser.parse_exn src)

let result_to_string = function
  | Value v -> Printf.sprintf "value %s" (value_to_string v)
  | Uncaught_exception (l, v) ->
      Printf.sprintf "uncaught exception %s %s" l (value_to_string v)
  | Stuck_config (msg, _) -> Printf.sprintf "stuck: %s" msg
  | Out_of_fuel _ -> "out of fuel"

let int_result = function
  | Value (V_int n) -> n
  | other -> failwith ("expected an integer result, got " ^ result_to_string other)
