module F = Retrofit_fiber
module D = Retrofit_dwarf
module Rng = Retrofit_util.Rng

type result = {
  outcome : Outcome.t;
  audit_checks : int;
  audit_visits : int;
  audit_violations : (string * string) list;
  dwarf_probes : int;
  dwarf_failures : string list;
  counters : Retrofit_util.Counter.t;
}

(* The stubs the two fragment C functions run: [Ext_id] is the identity,
   [Callback f] re-enters the machine through [f]. *)
let cfuns (prog : F.Compile.compiled) =
  Array.to_list prog.F.Compile.cfun_names
  |> List.filter_map (fun c ->
         match Fragment.cfun c with
         | Fragment.Ext_id -> Some (c, fun (_ : F.Machine.ctx) args -> args.(0))
         | Fragment.Callback f ->
             Some (c, fun (ctx : F.Machine.ctx) args -> ctx.callback f args)
         | Fragment.Foreign -> None)

let run ?(config = F.Config.mc) ?(fuel = 20_000_000) ?(audit = true) ?dwarf_seed
    ?(dwarf_max_probes = 500) ?on_perform (p : F.Ir.program) : result =
  match F.Compile.compile p with
  | exception F.Compile.Error msg ->
      {
        outcome = Outcome.Model_error ("fiber compile: " ^ msg);
        audit_checks = 0;
        audit_visits = 0;
        audit_violations = [];
        dwarf_probes = 0;
        dwarf_failures = [];
        counters = Retrofit_util.Counter.create ();
      }
  | prog ->
      let auditor = if audit then Some (F.Audit.audit ()) else None in
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
        F.Machine.run ~cfuns:(cfuns prog) ?on_call ?on_perform ?audit:auditor ~fuel
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
        audit_checks = (match auditor with Some a -> F.Audit.audit_checks a | None -> 0);
        audit_visits = (match auditor with Some a -> F.Audit.audit_visits a | None -> 0);
        audit_violations =
          (match auditor with Some a -> F.Audit.audit_violations a | None -> []);
        dwarf_probes = !probes;
        dwarf_failures = List.rev !dwarf_failures;
        counters;
      }
