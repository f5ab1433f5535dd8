(* Differential conformance: the §4 semantics, the fiber machine, and
   native effects must agree on generated programs, the runtime auditor
   and DWARF round-trips must stay clean, and the harness itself must
   be able to catch a seeded bug (sensitivity check). *)

module C = Retrofit_conformance
module F = Retrofit_fiber

let test name f = Alcotest.test_case name `Quick f

(* Fixed campaign parameters: seed 11 is an arbitrary committed choice;
   240 programs leave slack over the 200-per-pair floor even if a few
   fuel out. *)
let tier1_seed = 11

let tier1_count = 240

let corpus_replays_clean () =
  match C.Fuzz.replay_corpus () with
  | [] -> ()
  | (name, problem) :: _ -> Alcotest.failf "corpus entry %s: %s" name problem

let generator_emits_valid_programs () =
  for seed = 0 to 199 do
    let p = C.Gen.program_of_seed seed in
    match C.Fragment.validate p with
    | Ok () -> ()
    | Error msg ->
        Alcotest.failf "seed %d generated an invalid program: %s\n%s" seed msg
          (F.Ir.program_to_string p)
  done

let generator_is_deterministic () =
  for seed = 0 to 49 do
    let a = C.Gen.program_of_seed seed and b = C.Gen.program_of_seed seed in
    if a <> b then Alcotest.failf "seed %d is not replayable" seed
  done

(* The generator is pinned across versions, not only within one run:
   the printed programs of seeds 0-999, concatenated, must hash to the
   committed digest. *)
let generator_output_pinned () =
  let b = Buffer.create (1 lsl 20) in
  for seed = 0 to 999 do
    Buffer.add_string b (F.Ir.program_to_string (C.Gen.program_of_seed seed))
  done;
  Alcotest.(check string)
    "MD5 of the programs of seeds 0-999" "826c76ccf36690f13bd1b84cbfb10a48"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let campaign_agrees () =
  let stats = C.Fuzz.campaign ~seed:tier1_seed ~count:tier1_count () in
  (match stats.C.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "disagreement:\n%s" (C.Fuzz.failure_to_string f));
  List.iter
    (fun (pair, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s agreed on at least 200 programs (got %d)" pair n)
        true (n >= 200))
    stats.C.Fuzz.agreements;
  Alcotest.(check bool) "auditor ran" true (stats.C.Fuzz.audit_checks > 0);
  Alcotest.(check bool) "dwarf probes ran" true (stats.C.Fuzz.dwarf_probes > 0)

let campaign_is_deterministic () =
  let run () =
    C.Fuzz.campaign ~seed:tier1_seed ~count:40 ~dwarf:false ~shrink:false ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical stats" true
    (a.C.Fuzz.agreements = b.C.Fuzz.agreements
    && a.C.Fuzz.skips = b.C.Fuzz.skips
    && List.length a.C.Fuzz.failures = List.length b.C.Fuzz.failures)

(* Sensitivity: with the fiber machine's one-shot check disabled
   (multishot config), the differential harness must notice within 200
   programs, and the shrinker must cut the counterexample down to a
   small replayable core. *)
let catches_fiber_multishot_mutation () =
  let fiber_config = F.Config.with_multishot true F.Config.mc in
  let stats =
    C.Fuzz.campaign ~fiber_config ~seed:42 ~count:200 ~dwarf:false
      ~max_failures:1 ()
  in
  match stats.C.Fuzz.failures with
  | [] -> Alcotest.fail "disabled one-shot check went unnoticed for 200 programs"
  | f :: _ -> (
      Alcotest.(check bool) "caught within 200 programs" true (f.C.Fuzz.index < 200);
      match f.C.Fuzz.shrunk with
      | None -> Alcotest.fail "no shrunk repro"
      | Some q ->
          let n = C.Fragment.program_nodes q in
          Alcotest.(check bool)
            (Printf.sprintf "shrunk repro has %d nodes (<= 15)" n)
            true (n <= 15))

(* The whole report of a failing, shrinking campaign, byte for byte:
   the oracle report of the program and of its minimized form, under
   the analyzer and every campaign policy.  Generated with
   [print_string (Fuzz.failure_to_string f)] for this campaign's one
   failure; a change to how a campaign judges or shrinks a failing
   program that moves one line fails here. *)
let failing_campaign_report_pinned () =
  let ic = open_in "golden/fuzz_failure.golden" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fiber_config = F.Config.with_multishot true F.Config.mc in
  let stats =
    C.Fuzz.campaign ~fiber_config ~seed:42 ~count:200 ~analyze:true
      ~policies:C.Fuzz.default_policies ~max_failures:1 ()
  in
  Alcotest.(check string) "failure report matches golden" want
    (String.concat "" (List.map C.Fuzz.failure_to_string stats.C.Fuzz.failures))

(* Same check against the other side: a semantics machine allowed to
   resume continuations twice must disagree with the two faithful
   models. *)
let catches_semantics_multishot_mutation () =
  let stats =
    C.Fuzz.campaign ~sem_one_shot:false ~seed:42 ~count:200 ~dwarf:false
      ~max_failures:1 ~shrink:false ()
  in
  match stats.C.Fuzz.failures with
  | [] ->
      Alcotest.fail "multi-shot semantics machine went unnoticed for 200 programs"
  | f :: _ ->
      Alcotest.(check bool) "caught within 200 programs" true (f.C.Fuzz.index < 200)

(* The shrinker must preserve the property it is given and only emit
   well-formed programs. *)
let shrinker_preserves_interestingness () =
  let p = C.Gen.program_of_seed 3 in
  let target = C.Native_backend.run p in
  let interesting q = C.Outcome.equal (C.Native_backend.run q) target in
  let q = C.Shrink.minimize ~interesting p in
  (match C.Fragment.validate q with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "shrunk program invalid: %s" msg);
  Alcotest.(check bool) "still interesting" true (interesting q);
  Alcotest.(check bool) "no larger than the original" true
    (C.Fragment.program_nodes q <= C.Fragment.program_nodes p)

(* One-shot / discontinue edge battery: beyond the oracle agreement the
   corpus already enforces, pin the traced outcome of each entry on the
   semantics and fiber models individually, so a lockstep drift of the
   whole stack cannot slip through. *)
let corpus_outcomes_pinned_per_model () =
  List.iter
    (fun (e : C.Corpus.entry) ->
      let sem = C.Sem_backend.run e.program in
      let fib = (C.Fiber_backend.run e.program).C.Fiber_backend.outcome in
      let check model got =
        if not (C.Outcome.equal got e.expect) then
          Alcotest.failf "%s: %s produced %s, traced expectation is %s" e.name model
            (C.Outcome.to_string got)
            (C.Outcome.to_string e.expect)
      in
      check "semantics" sem;
      check "fiber" fib)
    C.Corpus.entries

(* A callback pushes a context word and a two-word boundary trap below
   sp.  Under a red zone of fewer than three words no prologue slack
   holds them, so the callback must grow the stack by the policy's own
   step.  Seed-1 programs #24 and #337 make callbacks at the edge of
   their stack. *)
let callbacks_make_room_under_every_red_zone () =
  for i = 0 to 399 do
    let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:1 i) in
    List.iter
      (fun (pname, policy) ->
        let run config =
          let config = F.Config.with_policy policy config in
          match C.Fiber_backend.run ~config p with
          | r ->
              (match r.C.Fiber_backend.audit_violations with
              | [] -> ()
              | (inv, msg) :: _ ->
                  Alcotest.failf "program #%d under %s: audit [%s] %s" i
                    (F.Config.name config) inv msg);
              r.C.Fiber_backend.outcome
          | exception e ->
              Alcotest.failf "program #%d under %s raised %s" i (F.Config.name config)
                (Printexc.to_string e)
        in
        let want = run F.Config.mc in
        List.iter
          (fun rz ->
            let got = run (F.Config.mc_red_zone rz) in
            if not (C.Outcome.equal want got) then
              Alcotest.failf "program #%d under %s, red zone %d: %s, default %s" i pname rz
                (C.Outcome.to_string got) (C.Outcome.to_string want))
          [ 0; 32 ])
      F.Stack_policy.all
  done

(* A campaign compiles each program once and runs that one value on
   every leg.  The value is run here under mc, each campaign policy,
   multishot and mc again, audited and DWARF-sampled, and each run must
   equal a fresh compile's in everything it reports: outcome, audit
   passes, visits and violations, DWARF probes and failures, and every
   counter.  A run that wrote into the compiled program, its C stubs or
   its unwind table would show in a later run.

   The campaign also judges the analyzer's claims on those same legs,
   so each must equal a bare run (no auditor, no sampling) of the value
   in its outcome, its [on_perform] (site, handler) sequence and every
   counter but [addr_index_probe], which the unwinder's lookups bump. *)
let shared_compile_runs_like_fresh () =
  let module B = C.Fiber_backend in
  let module Counter = Retrofit_util.Counter in
  let configs =
    let mc = F.Config.mc in
    (mc :: List.map (fun p -> F.Config.with_policy p mc) C.Fuzz.default_policies)
    @ [ F.Config.with_multishot true mc; mc ]
  in
  let summary (r : B.result) =
    ( C.Outcome.to_string r.B.outcome,
      (r.B.audit_checks, r.B.audit_visits, r.B.audit_violations),
      (r.B.dwarf_probes, r.B.dwarf_failures),
      List.map (Counter.value r.B.counters) Counter.all )
  in
  (* a run with its outcome, dispatches and counters bar the unwinder's *)
  let observed run =
    let obs = ref [] in
    let r = run (fun ~site ~eff:_ ~handler -> obs := (site, handler) :: !obs) in
    let counted = List.filter (( <> ) Counter.Addr_index_probe) Counter.all in
    ( C.Outcome.to_string r.B.outcome,
      List.rev !obs,
      List.map (Counter.value r.B.counters) counted,
      r )
  in
  let check_program name seed p =
    let compiled = B.compile p in
    List.iteri
      (fun k config ->
        let o, dispatches, counters, shared =
          observed (fun on_perform ->
              B.exec ~config ~dwarf_seed:seed ~on_perform compiled)
        in
        let fresh = B.run ~config ~dwarf_seed:seed p in
        if summary shared <> summary fresh then
          Alcotest.failf "%s, run %d (%s): shared compile gave %s, fresh compile %s" name k
            (F.Config.name config)
            (C.Outcome.to_string shared.B.outcome)
            (C.Outcome.to_string fresh.B.outcome);
        let o', dispatches', counters', _ =
          observed (fun on_perform -> B.exec ~config ~audit:false ~on_perform compiled)
        in
        if o <> o' || dispatches <> dispatches' || counters <> counters' then
          Alcotest.failf
            "%s, run %d (%s): audited and sampled gave %s, %d dispatches; bare %s, %d \
             dispatches%s"
            name k (F.Config.name config) o (List.length dispatches) o'
            (List.length dispatches')
            (if counters <> counters' then " (counters differ)" else ""))
      configs
  in
  List.iter (fun (e : C.Corpus.entry) -> check_program e.name 1 e.program) C.Corpus.entries;
  for i = 0 to 199 do
    let s = C.Fuzz.prog_seed ~seed:1 i in
    check_program (Printf.sprintf "seed-1 program #%d" i) s (C.Gen.program_of_seed s)
  done;
  (* a program that does not compile reports the compiler's message
     through both paths and through the oracle *)
  let bad =
    { F.Ir.fns = [ { F.Ir.fn_name = "main"; params = []; body = F.Ir.Call ("nope", []) } ];
      main = "main" }
  in
  let msg =
    match F.Compile.compile bad with
    | _ -> Alcotest.fail "a call to an unknown function compiled"
    | exception F.Compile.Error m -> "fiber compile: " ^ m
  in
  let text = function
    | C.Outcome.Model_error m -> m
    | o -> Alcotest.failf "expected a model error, got %s" (C.Outcome.to_string o)
  in
  let compiled = B.compile bad in
  Alcotest.(check bool) "no compiled program" true (Option.is_none (B.program compiled));
  List.iter
    (fun (path, o) -> Alcotest.(check string) path msg (text o))
    [
      ("exec", (B.exec compiled).B.outcome);
      ("run", (B.run bad).B.outcome);
      ("oracle", (C.Oracle.run bad).C.Oracle.fib.B.outcome);
    ]

let suite =
  [
    test "corpus replays clean" corpus_replays_clean;
    test "corpus outcomes pinned per model" corpus_outcomes_pinned_per_model;
    test "generator emits valid programs" generator_emits_valid_programs;
    test "generator is deterministic" generator_is_deterministic;
    test "generator output is pinned" generator_output_pinned;
    test "campaign: three models agree" campaign_agrees;
    test "campaign is deterministic" campaign_is_deterministic;
    test "catches disabled fiber one-shot check" catches_fiber_multishot_mutation;
    test "failing campaign report pinned" failing_campaign_report_pinned;
    test "catches multi-shot semantics machine" catches_semantics_multishot_mutation;
    test "shrinker preserves interestingness" shrinker_preserves_interestingness;
    test "callbacks make room under every red zone" callbacks_make_room_under_every_red_zone;
    test "one compiled value runs like fresh compiles" shared_compile_runs_like_fresh;
  ]
