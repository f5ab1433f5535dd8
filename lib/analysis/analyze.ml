module F = Retrofit_fiber
module Eff = Retrofit_core.Eff

type must = M_value | M_raises of string | M_unknown

type result = {
  report : Diag.report;
  flow_unhandled_may : bool;
  flow_one_shot_may : bool;
  must : must;
  hit_violation : bool;
  resolve : Resolve.t;
  cost : Costbound.t;
  compiled : F.Compile.compiled;
}

(* ------------------------------------------------------------------ *)
(* The must pass: a bounded concrete interpreter.  Fiber programs are
   closed and deterministic, so when one terminating evaluation fits in
   the fuel budget its outcome is the program's outcome — under the
   one-shot discipline — and [May] verdicts sharpen to [Must] (or, for
   the other label, to [Safe]).  Anything the interpreter cannot decide
   exactly (an external call's return value steering a branch, fuel or
   host-stack exhaustion, a runtime-injected payload being inspected)
   aborts to [M_unknown] rather than guessing.

   Continuations are real: the interpreter runs on OCaml's own effect
   handlers, so one-shot violations, discontinue routing, deep-handler
   forwarding and exception paths into resumed fibers all follow the
   semantics the fiber machine implements.  [hit_violation] records
   that a second resume happened: past that point a multi-shot runtime
   diverges from this execution, so multi-shot claims must fall back to
   the flow analysis. *)

type mval = M_int of int | M_cont of (mval, mval) Eff.continuation | M_unk

type _ Effect.t += M_eff : string * mval -> mval Effect.t

exception M_raise of string * mval

exception M_abort

exception M_fuel

let must_run (cfg : Cfg.t) : must * bool =
  let fuel = ref 200_000 in
  let violated = ref false in
  let tick () =
    decr fuel;
    if !fuel <= 0 then raise M_fuel
  in
  let as_int = function M_int n -> Some n | _ -> None in
  let rec eval env (e : F.Ir.expr) : mval =
    tick ();
    match e with
    | F.Ir.Int n -> M_int n
    | F.Ir.Var x -> (
        match List.assoc_opt x env with Some v -> v | None -> raise M_abort)
    | F.Ir.Binop (op, a, b) -> (
        let va = eval env a in
        let vb = eval env b in
        match op with
        | F.Ir.Div | F.Ir.Mod -> (
            match as_int vb with
            | None -> raise M_abort
            | Some 0 -> raise (M_raise (Effects.division_by_zero, M_unk))
            | Some d -> (
                match as_int va with
                | None -> M_unk
                | Some n ->
                    M_int (if op = F.Ir.Div then n / d else n mod d)))
        | _ -> (
            match (as_int va, as_int vb) with
            | Some x, Some y ->
                M_int
                  (match op with
                  | F.Ir.Add -> x + y
                  | F.Ir.Sub -> x - y
                  | F.Ir.Mul -> x * y
                  | F.Ir.Lt -> if x < y then 1 else 0
                  | F.Ir.Le -> if x <= y then 1 else 0
                  | F.Ir.Eq -> if x = y then 1 else 0
                  | F.Ir.Ne -> if x <> y then 1 else 0
                  | F.Ir.Div | F.Ir.Mod -> assert false)
            | _ -> M_unk))
    | F.Ir.If (c, t, f) -> (
        match as_int (eval env c) with
        | Some 0 -> eval env f
        | Some _ -> eval env t
        | None -> raise M_abort)
    | F.Ir.Let (x, a, b) ->
        let v = eval env a in
        eval ((x, v) :: env) b
    | F.Ir.Seq (a, b) ->
        ignore (eval env a);
        eval env b
    | F.Ir.Call (f, args) ->
        let vs = List.map (eval env) args in
        call f vs
    | F.Ir.Raise (l, e) -> raise (M_raise (l, eval env e))
    | F.Ir.Trywith (b, cases) -> (
        match eval env b with
        | v -> v
        | exception (M_raise (l, payload) as ex) -> (
            match List.find_opt (fun (l', _, _) -> l' = l) cases with
            | Some (_, x, h) -> eval ((x, payload) :: env) h
            | None -> raise ex))
    | F.Ir.Perform (l, e) -> (
        let v = eval env e in
        (* no handler above: the machine raises Unhandled at the
           perform site, catchable on the way out *)
        try Eff.perform (M_eff (l, v))
        with Effect.Unhandled _ -> raise (M_raise (Effects.unhandled, M_unk)))
    | F.Ir.Handle h ->
        let vs = List.map (eval env) h.F.Ir.body_args in
        Eff.match_with
          (fun () -> call h.F.Ir.body_fn vs)
          {
            Eff.retc = (fun r -> call h.F.Ir.retc [ r ]);
            exnc =
              (fun ex ->
                match ex with
                | M_raise (l, payload) -> (
                    match List.assoc_opt l h.F.Ir.exncs with
                    | Some g -> call g [ payload ]
                    | None -> raise ex)
                | _ -> raise ex);
            effc =
              (fun (type c) (eff : c Effect.t) ->
                match eff with
                | M_eff (l, v) -> (
                    match List.assoc_opt l h.F.Ir.effcs with
                    | Some g ->
                        Some
                          (fun (k : (c, _) Eff.continuation) ->
                            call g [ v; M_cont k ])
                    | None -> None)
                | _ -> None);
          }
    | F.Ir.Continue (k, e) -> (
        let v = eval env e in
        match eval env k with
        | M_cont c -> (
            try Eff.continue c v
            with Effect.Continuation_already_resumed ->
              violated := true;
              raise (M_raise (Effects.invalid_argument, M_unk)))
        | _ -> raise M_abort)
    | F.Ir.Discontinue (k, l, e) -> (
        let v = eval env e in
        match eval env k with
        | M_cont c -> (
            try Eff.discontinue c (M_raise (l, v))
            with Effect.Continuation_already_resumed ->
              violated := true;
              raise (M_raise (Effects.invalid_argument, M_unk)))
        | _ -> raise M_abort)
    | F.Ir.Extcall (c, args) -> (
        List.iter (fun a -> ignore (eval env a)) args;
        match cfg.Cfg.cfuns.(Cfg.cfun_id cfg c) with
        | Cfg.Pure -> M_unk
        | Cfg.Calls_back _ | Cfg.Opaque -> raise M_abort)
    | F.Ir.Repeat (c, b) -> (
        match as_int (eval env c) with
        | None -> raise M_abort
        | Some n ->
            for _ = 1 to n do
              ignore (eval env b)
            done;
            M_int 0)
  (* the program compiled, so every callee exists and arities match *)
  and call f vs =
    let fn = cfg.Cfg.fns.(Cfg.fn_id cfg f) in
    eval (List.combine fn.F.Ir.params vs) fn.F.Ir.body
  in
  let main = cfg.Cfg.fns.(cfg.Cfg.compiled.F.Compile.main_index) in
  let res =
    match call main.F.Ir.fn_name [] with
    | M_int _ | M_unk | M_cont _ -> M_value
    | exception M_raise (l, _) -> M_raises l
    | exception (M_abort | M_fuel | Stack_overflow) -> M_unknown
    | exception Effect.Unhandled _ -> M_unknown
    | exception Effect.Continuation_already_resumed -> M_unknown
  in
  (res, !violated)

(* ------------------------------------------------------------------ *)

(* One flow-level May sharpened by the must pass.  The must pass's
   unique execution follows the one-shot discipline; after a violation
   a multi-shot runtime diverges from it, so the flow booleans in
   [result] — not these verdicts — are the sound basis for multi-shot
   claims. *)
let refine ~flow_may ~(must : must) label =
  match must with
  | M_raises l when l = label -> Diag.Must
  | _ when not flow_may -> Diag.Safe
  | M_value -> Diag.Safe
  | M_raises _ -> Diag.Safe
  | M_unknown -> Diag.May

let analyze ~cfun_model ?(multishot = false) ?compiled ?(lints = true)
    (p : F.Ir.program) : result =
  let compiled =
    match compiled with Some c -> c | None -> F.Compile.compile p
  in
  let cfg = Cfg.build ~cfun_model compiled p in
  let lin = Linearity.analyze cfg in
  let resolve = Resolve.analyze cfg lin in
  let eff = Effects.analyze ~multishot cfg lin resolve in
  let diags = if lints then Effects.diagnostics eff else [] in
  let flow_u = Effects.unhandled_may eff in
  let flow_o = Effects.one_shot_may eff in
  let cost = Costbound.analyze ~cfun_model:cfg.Cfg.cfuns compiled in
  let must, hit_violation = must_run cfg in
  (* The interpreter's continuations are the host's, hence one-shot:
     past a violation its execution diverges from the cloning runtime,
     so its outcome cannot sharpen multishot verdicts. *)
  let must_usable = if multishot && hit_violation then M_unknown else must in
  let unhandled = refine ~flow_may:flow_u ~must:must_usable Effects.unhandled in
  let one_shot =
    refine ~flow_may:flow_o ~must:must_usable Effects.invalid_argument
  in
  {
    report = { Diag.diags; unhandled; one_shot };
    flow_unhandled_may = flow_u;
    flow_one_shot_may = flow_o;
    must;
    hit_violation;
    resolve;
    cost;
    compiled;
  }

let lint ~cfun_model (p : F.Ir.program) : Diag.report =
  let r = analyze ~cfun_model p in
  let rz = Redzone.audit ~red_zone:16 r.compiled in
  { r.report with Diag.diags = Diag.dedup (rz @ r.report.Diag.diags) }
