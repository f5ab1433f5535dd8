type verdict = Agree | Skip | Diff

type report = {
  program : Ir.program;
  sem : Outcome.t;
  fib : Outcome.t;
  nat : Outcome.t;
  pairs : (string * verdict) list;
  audit_checks : int;
  audit_visits : int;
  audit_violations : (string * string) list;
  dwarf_probes : int;
  dwarf_failures : string list;
}

let compare_pair a b =
  match (a, b) with
  | Outcome.Fuel_out, _ | _, Outcome.Fuel_out -> Skip
  | _ -> if Outcome.equal a b then Agree else Diff

let is_model_error = function Outcome.Model_error _ -> true | _ -> false

let run ?sem_fuel ?fib_fuel ?nat_fuel ?(audit = true) ?dwarf_seed
    ?(fiber_config = Retrofit_fiber.Config.mc) ?(sem_one_shot = true)
    ?(with_native = true) (p : Ir.program) : report =
  let sem = Sem_backend.run ?fuel:sem_fuel ~one_shot:sem_one_shot p in
  let fr = Fiber_backend.run ~config:fiber_config ?fuel:fib_fuel ~audit ?dwarf_seed p in
  (* Host effects are one-shot; multishot campaigns drop the native leg
     by reporting it as inconclusive, which [compare_pair] skips. *)
  let nat =
    if with_native then Native_backend.run ?fuel:nat_fuel p else Outcome.Fuel_out
  in
  let fib = fr.Fiber_backend.outcome in
  {
    program = p;
    sem;
    fib;
    nat;
    pairs =
      [
        ("semantics<->fiber", compare_pair sem fib);
        ("fiber<->native", compare_pair fib nat);
        ("semantics<->native", compare_pair sem nat);
      ];
    audit_checks = fr.audit_checks;
    audit_visits = fr.audit_visits;
    audit_violations = fr.audit_violations;
    dwarf_probes = fr.dwarf_probes;
    dwarf_failures = fr.dwarf_failures;
  }

let ok r =
  List.for_all (fun (_, v) -> v <> Diff) r.pairs
  && r.audit_violations = []
  && r.dwarf_failures = []
  && not (is_model_error r.sem || is_model_error r.fib || is_model_error r.nat)

let verdict_to_string = function Agree -> "agree" | Skip -> "skip" | Diff -> "DIFF"

let to_string r =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "semantics: %s\n" (Outcome.to_string r.sem));
  Buffer.add_string b (Printf.sprintf "fiber:     %s\n" (Outcome.to_string r.fib));
  Buffer.add_string b (Printf.sprintf "native:    %s\n" (Outcome.to_string r.nat));
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "  %-20s %s\n" name (verdict_to_string v)))
    r.pairs;
  if r.audit_violations <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "audit violations (%d checks):\n" r.audit_checks);
    List.iter
      (fun (inv, msg) -> Buffer.add_string b (Printf.sprintf "  [%s] %s\n" inv msg))
      r.audit_violations
  end;
  if r.dwarf_failures <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "dwarf failures (%d probes):\n" r.dwarf_probes);
    List.iter (fun m -> Buffer.add_string b (Printf.sprintf "  %s\n" m)) r.dwarf_failures
  end;
  Buffer.contents b
