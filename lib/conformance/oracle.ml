type verdict = Agree | Skip | Diff

type report = {
  program : Retrofit_fiber.Ir.program;
  sem : Outcome.t;
  fib : Fiber_backend.result;
  nat : Outcome.t;
  pairs : (string * verdict) list;
}

let compare_pair a b =
  match (a, b) with
  | Outcome.Fuel_out, _ | _, Outcome.Fuel_out -> Skip
  | _ -> if Outcome.equal a b then Agree else Diff

let is_model_error = function Outcome.Model_error _ -> true | _ -> false

let judge p ~sem ~(fib : Fiber_backend.result) ~nat =
  let f = fib.Fiber_backend.outcome in
  {
    program = p;
    sem;
    fib;
    nat;
    pairs =
      [
        ("semantics<->fiber", compare_pair sem f);
        ("fiber<->native", compare_pair f nat);
        ("semantics<->native", compare_pair sem nat);
      ];
  }

let run ?(audit = true) ?dwarf_seed (p : Retrofit_fiber.Ir.program) : report =
  let sem = Sem_backend.run p in
  let fib = Fiber_backend.run ~audit ?dwarf_seed p in
  let nat = Native_backend.run p in
  judge p ~sem ~fib ~nat

let ok r =
  List.for_all (fun (_, v) -> v <> Diff) r.pairs
  && r.fib.Fiber_backend.audit_violations = []
  && r.fib.Fiber_backend.dwarf_failures = []
  && not
       (is_model_error r.sem
       || is_model_error r.fib.Fiber_backend.outcome
       || is_model_error r.nat)

let verdict_to_string = function Agree -> "agree" | Skip -> "skip" | Diff -> "DIFF"

let to_string r =
  let { Fiber_backend.outcome = fib; audit_checks; audit_violations; dwarf_probes;
        dwarf_failures; _ } =
    r.fib
  in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "semantics: %s\n" (Outcome.to_string r.sem));
  Buffer.add_string b (Printf.sprintf "fiber:     %s\n" (Outcome.to_string fib));
  Buffer.add_string b (Printf.sprintf "native:    %s\n" (Outcome.to_string r.nat));
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "  %-20s %s\n" name (verdict_to_string v)))
    r.pairs;
  if audit_violations <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "audit violations (%d checks):\n" audit_checks);
    List.iter
      (fun (inv, msg) -> Buffer.add_string b (Printf.sprintf "  [%s] %s\n" inv msg))
      audit_violations
  end;
  if dwarf_failures <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "dwarf failures (%d probes):\n" dwarf_probes);
    List.iter (fun m -> Buffer.add_string b (Printf.sprintf "  %s\n" m)) dwarf_failures
  end;
  Buffer.contents b
