module F = Retrofit_fiber
module D = Retrofit_dwarf
module Rng = Retrofit_util.Rng

type result = {
  outcome : Outcome.t;
  audit_checks : int;
  audit_violations : (string * string) list;
  dwarf_probes : int;
  dwarf_failures : string list;
  counters : Retrofit_util.Counter.t;
}

let binop : Ir.binop -> F.Ir.binop = function
  | Ir.Add -> F.Ir.Add
  | Ir.Sub -> F.Ir.Sub
  | Ir.Mul -> F.Ir.Mul
  | Ir.Div -> F.Ir.Div
  | Ir.Lt -> F.Ir.Lt
  | Ir.Le -> F.Ir.Le
  | Ir.Eq -> F.Ir.Eq

let ext_id_cfun = "c_id"

let callback_cfun f = "cb_" ^ f

let rec lower_expr (e : Ir.expr) : F.Ir.expr =
  match e with
  | Ir.Int n -> F.Ir.Int n
  | Ir.Var x -> F.Ir.Var x
  | Ir.Binop (op, a, b) -> F.Ir.Binop (binop op, lower_expr a, lower_expr b)
  | Ir.If (c, t, f) -> F.Ir.If (lower_expr c, lower_expr t, lower_expr f)
  | Ir.Let (x, a, b) -> F.Ir.Let (x, lower_expr a, lower_expr b)
  | Ir.Seq (a, b) -> F.Ir.Seq (lower_expr a, lower_expr b)
  | Ir.Call (f, args) -> F.Ir.Call (f, List.map lower_expr args)
  | Ir.Raise (l, e) -> F.Ir.Raise (l, lower_expr e)
  | Ir.Try (b, cases) ->
      F.Ir.Trywith (lower_expr b, List.map (fun (l, x, e) -> (l, x, lower_expr e)) cases)
  | Ir.Perform (l, e) -> F.Ir.Perform (l, lower_expr e)
  | Ir.Handle h ->
      F.Ir.Handle
        {
          F.Ir.body_fn = fst h.h_body;
          body_args = List.map lower_expr (snd h.h_body);
          retc = h.h_ret;
          exncs = h.h_exncs;
          effcs = h.h_effcs;
        }
  | Ir.Continue (k, e) -> F.Ir.Continue (F.Ir.Var k, lower_expr e)
  | Ir.Discontinue (k, l, e) -> F.Ir.Discontinue (F.Ir.Var k, l, lower_expr e)
  | Ir.Ext_id e -> F.Ir.Extcall (ext_id_cfun, [ lower_expr e ])
  | Ir.Callback (f, e) -> F.Ir.Extcall (callback_cfun f, [ lower_expr e ])

let lower_fn (fn : Ir.fn) : F.Ir.fn =
  { F.Ir.fn_name = fn.fn_name; params = fn.fn_params; body = lower_expr fn.fn_body }

let lower (p : Ir.program) : F.Ir.program =
  { F.Ir.fns = List.map lower_fn p.fns; main = p.main }

(* Functions invoked through [Callback] need a registered C stub that
   re-enters the machine. *)
let callback_targets (p : Ir.program) =
  let acc = ref [] in
  let rec go = function
    | Ir.Int _ | Ir.Var _ -> ()
    | Ir.Binop (_, a, b) | Ir.Seq (a, b) | Ir.Let (_, a, b) ->
        go a;
        go b
    | Ir.If (a, b, c) ->
        go a;
        go b;
        go c
    | Ir.Call (_, args) -> List.iter go args
    | Ir.Raise (_, e)
    | Ir.Perform (_, e)
    | Ir.Continue (_, e)
    | Ir.Discontinue (_, _, e)
    | Ir.Ext_id e ->
        go e
    | Ir.Callback (f, e) ->
        if not (List.mem f !acc) then acc := f :: !acc;
        go e
    | Ir.Try (b, cases) ->
        go b;
        List.iter (fun (_, _, e) -> go e) cases
    | Ir.Handle h -> List.iter go (snd h.h_body)
  in
  List.iter (fun f -> go f.Ir.fn_body) p.fns;
  List.sort compare !acc

let cfuns p =
  (ext_id_cfun, fun (_ : F.Machine.ctx) args -> args.(0))
  :: List.map
       (fun f ->
         (callback_cfun f, fun (ctx : F.Machine.ctx) args -> ctx.callback f args))
       (callback_targets p)

let run ?(config = F.Config.mc) ?(fuel = 20_000_000) ?(audit = true) ?dwarf_seed
    ?(dwarf_max_probes = 500) ?on_perform (p : Ir.program) : result =
  match F.Compile.compile (lower p) with
  | exception F.Compile.Error msg ->
      {
        outcome = Outcome.Model_error ("fiber compile: " ^ msg);
        audit_checks = 0;
        audit_violations = [];
        dwarf_probes = 0;
        dwarf_failures = [];
        counters = Retrofit_util.Counter.create ();
      }
  | prog ->
      let auditor = if audit then Some (F.Machine.audit ()) else None in
      let probes = ref 0 in
      let dwarf_failures = ref [] in
      let on_call =
        match dwarf_seed with
        | None -> None
        | Some seed ->
            let check = D.Validate.checker (D.Table.build prog) in
            let rng = Rng.create seed in
            Some
              (fun m ->
                (* Each probe unwinds the whole stack, so probing a fixed
                   fraction of calls would be quadratic on deep fuel-bound
                   runs; stop sampling after the per-program budget. *)
                if !probes < dwarf_max_probes && Rng.int rng 8 = 0 then begin
                  incr probes;
                  match check m with
                  | Ok () -> ()
                  | Error e ->
                      if List.length !dwarf_failures < 5 then
                        dwarf_failures := e :: !dwarf_failures
                end)
      in
      let outcome, counters =
        F.Machine.run ~cfuns:(cfuns p) ?on_call ?on_perform ?audit:auditor ~fuel
          config prog
      in
      let outcome =
        match outcome with
        | F.Machine.Done n -> Outcome.Value n
        | F.Machine.Uncaught (l, payload) -> Outcome.normalize_exn l payload
        | F.Machine.Fatal "out of fuel" -> Outcome.Fuel_out
        | F.Machine.Fatal msg -> Outcome.Model_error ("fiber: " ^ msg)
      in
      {
        outcome;
        audit_checks = (match auditor with Some a -> F.Machine.audit_checks a | None -> 0);
        audit_violations =
          (match auditor with Some a -> F.Machine.audit_violations a | None -> []);
        dwarf_probes = !probes;
        dwarf_failures = List.rev !dwarf_failures;
        counters;
      }
