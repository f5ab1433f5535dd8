(* Static effect-safety analyzer: the corpus verdict table, targeted
   cases per diagnostic kind, the red-zone audit (including an injected
   unsound elision), frame metadata cross-checks, printer injectivity,
   and an in-test analyzer-vs-oracle soundness fuzz. *)

module C = Retrofit_conformance
module A = Retrofit_analysis
module F = Retrofit_fiber
module M = Retrofit_macro

let test name f = Alcotest.test_case name `Quick f

let vstr = A.Diag.verdict_to_string

(* The built-in programs' C stubs, modelled precisely (same table as
   `retrofit lint`). *)
let builtin_cfun_model = function
  | "c_id" | "list_pending" -> A.Cfg.Pure
  | "c_cb" -> A.Cfg.Calls_back "ocaml_id"
  | "ocaml_to_c" -> A.Cfg.Calls_back "c_to_ocaml"
  | _ -> A.Cfg.Opaque

let lint p = A.Analyze.lint ~cfun_model:builtin_cfun_model p

let kinds (r : A.Diag.report) =
  List.map (fun (d : A.Diag.t) -> A.Diag.kind_label d.A.Diag.kind) r.A.Diag.diags

let has_kind k r = List.mem k (kinds r)

let fn name params body =
  { F.Ir.fn_name = name; F.Ir.params = params; F.Ir.body = body }

let prog fns = { F.Ir.fns; F.Ir.main = "main" }

(* ------------------------------------------------------------------ *)
(* Corpus verdict table: the analyzer's program-level claims on all ten
   hand-written edge cases, pinned exactly.  Every claim is consistent
   with the entry's traced outcome — Must where the outcome is the
   claimed one, Safe only where the outcome shows it never happens. *)

let corpus_table =
  [
    ("double_resume_after_return", A.Diag.Safe, A.Diag.Must);
    ("discontinue_never_resumed", A.Diag.Safe, A.Diag.Safe);
    ("effect_in_return_branch", A.Diag.Safe, A.Diag.Safe);
    ("effect_in_return_unhandled", A.Diag.Must, A.Diag.Safe);
    ("discontinue_then_continue", A.Diag.Safe, A.Diag.Must);
    ("unhandled_in_callback", A.Diag.Safe, A.Diag.Safe);
    ("div_by_zero_payload", A.Diag.Safe, A.Diag.Safe);
    ("deep_growth_capture", A.Diag.Safe, A.Diag.Safe);
    ("nested_reperform", A.Diag.Safe, A.Diag.Safe);
    ("exception_through_handler", A.Diag.Safe, A.Diag.Safe);
  ]

let corpus_verdict_table () =
  Alcotest.(check int)
    "table covers the corpus" (List.length C.Corpus.entries)
    (List.length corpus_table);
  List.iter
    (fun (e : C.Corpus.entry) ->
      let name = e.C.Corpus.name in
      match
        List.find_opt (fun (n, _, _) -> n = name) corpus_table
      with
      | None -> Alcotest.failf "corpus entry %s missing from the table" name
      | Some (_, eu, eo) ->
          let c = C.Static.analyze e.C.Corpus.program in
          let vu, vo = C.Static.verdicts ~one_shot:true c in
          Alcotest.(check string)
            (name ^ " unhandled") (vstr eu) (vstr vu);
          Alcotest.(check string)
            (name ^ " one-shot") (vstr eo) (vstr vo);
          (* and the claim never contradicts the traced outcome *)
          match C.Static.contradiction c e.C.Corpus.expect with
          | None -> ()
          | Some msg -> Alcotest.failf "%s: unsound claim: %s" name msg)
    C.Corpus.entries

(* The cross-check itself must be able to catch unsound claims in both
   directions; feed settled claims the opposite outcome. *)
let checker_catches_unsound_claims () =
  let safe_entry =
    List.find
      (fun (e : C.Corpus.entry) -> e.C.Corpus.name = "effect_in_return_branch")
      C.Corpus.entries
  in
  let c = C.Static.analyze safe_entry.C.Corpus.program in
  (match C.Static.contradiction c C.Outcome.Unhandled with
  | Some _ -> ()
  | None -> Alcotest.fail "safe-from-Unhandled claim not held against Unhandled");
  (match C.Static.contradiction c C.Outcome.One_shot with
  | Some _ -> ()
  | None -> Alcotest.fail "safe-from-one-shot claim not held against One_shot");
  let must_entry =
    List.find
      (fun (e : C.Corpus.entry) ->
        e.C.Corpus.name = "double_resume_after_return")
      C.Corpus.entries
  in
  let c = C.Static.analyze must_entry.C.Corpus.program in
  match C.Static.contradiction c (C.Outcome.Value 0) with
  | Some _ -> ()
  | None -> Alcotest.fail "must-one-shot claim not held against a value outcome"

(* ------------------------------------------------------------------ *)
(* Targeted cases, one per diagnostic kind, over the built-ins. *)

let possibly_unhandled_flagged () =
  let r = lint F.Programs.unhandled_effect in
  Alcotest.(check string) "unhandled verdict" "must" (vstr r.A.Diag.unhandled);
  Alcotest.(check bool) "flagged" true (has_kind "possibly-unhandled" r)

let effect_across_c_frame_flagged () =
  let r = lint F.Programs.effect_in_callback in
  let found =
    List.exists
      (fun (d : A.Diag.t) ->
        match d.A.Diag.kind with
        | A.Diag.Effect_across_c_frame { effect_name = "E"; cfun = "ocaml_to_c" }
          ->
            d.A.Diag.fn = "c_to_ocaml"
        | _ -> false)
      r.A.Diag.diags
  in
  Alcotest.(check bool) "E barred at ocaml_to_c's frame" true found;
  (* the callback's blanked handler chain also makes main's E clause
     dead: the Unhandled is caught inside the callback and the effect
     never reaches the installation *)
  Alcotest.(check bool) "dead clause" true (has_kind "dead-handler-clause" r)

let may_resume_twice_flagged () =
  List.iter
    (fun p ->
      let r = lint p in
      Alcotest.(check string) "one-shot verdict" "must" (vstr r.A.Diag.one_shot);
      Alcotest.(check bool) "flagged" true (has_kind "may-resume-twice" r))
    [ F.Programs.one_shot_violation; F.Programs.multishot_choice ]

let may_leak_flagged () =
  let r = lint (F.Programs.suspended_requests ~n:3) in
  let found =
    List.exists
      (fun (d : A.Diag.t) ->
        match d.A.Diag.kind with
        | A.Diag.May_leak _ -> d.A.Diag.verdict = A.Diag.Must
        | _ -> false)
      r.A.Diag.diags
  in
  Alcotest.(check bool) "parked continuations are a must-leak" true found

let dead_exn_clause_flagged () =
  (* the body performs (so the effect clause is live) but never raises
     A, and nothing discontinues with A: the exn clause can't fire *)
  let p =
    prog
      [
        fn "id" [ "x" ] (F.Ir.Var "x");
        fn "body" [] (F.Ir.Perform ("E", F.Ir.Int 1));
        fn "h" [ "x"; "k" ] (F.Ir.Continue (F.Ir.Var "k", F.Ir.Var "x"));
        fn "main" []
          (F.Ir.Handle
             {
               F.Ir.body_fn = "body";
               F.Ir.body_args = [];
               F.Ir.retc = "id";
               F.Ir.exncs = [ ("A", "id") ];
               F.Ir.effcs = [ ("E", "h") ];
             });
      ]
  in
  let r = lint p in
  let found =
    List.exists
      (fun (d : A.Diag.t) ->
        match d.A.Diag.kind with
        | A.Diag.Dead_handler_clause
            { clause = A.Diag.Exn_clause; label = "A"; _ } ->
            d.A.Diag.verdict = A.Diag.Must
        | _ -> false)
      r.A.Diag.diags
  in
  Alcotest.(check bool) "dead exn clause" true found;
  (* the live effect clause is not reported *)
  let eff_dead =
    List.exists
      (fun (d : A.Diag.t) ->
        match d.A.Diag.kind with
        | A.Diag.Dead_handler_clause { clause = A.Diag.Eff_clause; _ } -> true
        | _ -> false)
      r.A.Diag.diags
  in
  Alcotest.(check bool) "live eff clause not reported" false eff_dead

let clean_programs_have_no_findings () =
  List.iter
    (fun (name, p) ->
      let r = lint p in
      if r.A.Diag.diags <> [] then
        Alcotest.failf "%s: unexpected findings:\n%s" name
          (A.Diag.report_to_string r);
      Alcotest.(check string)
        (name ^ " unhandled") "safe"
        (vstr r.A.Diag.unhandled);
      Alcotest.(check string) (name ^ " one-shot") "safe" (vstr r.A.Diag.one_shot))
    [
      ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:3);
      ("counter_effect", F.Programs.counter_effect ~upto:4);
      ("cross_resume", F.Programs.cross_resume);
      ("meander", F.Programs.meander);
      ("exnraise", F.Programs.exnraise ~iters:2);
      ("extcall", F.Programs.extcall ~iters:2);
      ("callback", F.Programs.callback ~iters:2);
    ]

let diagnostics_are_deterministic () =
  let r1 = lint F.Programs.multishot_choice
  and r2 = lint F.Programs.multishot_choice in
  Alcotest.(check bool) "identical reports" true
    (A.Diag.report_to_string r1 = A.Diag.report_to_string r2)

(* ------------------------------------------------------------------ *)
(* Red-zone audit. *)

let audit_suite =
  [
    F.Programs.fib ~n:5;
    F.Programs.ack ~m:2 ~n:2;
    F.Programs.exnraise ~iters:2;
    F.Programs.effect_roundtrip ~iters:2;
    F.Programs.effect_depth ~depth:3 ~iters:2;
    F.Programs.counter_effect ~upto:3;
    F.Programs.meander;
    F.Programs.one_shot_violation;
    F.Programs.cross_resume;
    F.Programs.suspended_requests ~n:2;
  ]

let redzone_agrees_on_builtins () =
  List.iter
    (fun p ->
      let c = F.Compile.compile p in
      match A.Redzone.audit ~red_zone:16 c with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "audit disagreed with the compiler: %s"
            (A.Diag.to_string d))
    audit_suite

let redzone_matches_compiler_metadata () =
  List.iter
    (fun p ->
      let c = F.Compile.compile p in
      Array.iter
        (fun (f : F.Compile.cfn) ->
          let r = A.Redzone.compute c f in
          Alcotest.(check bool)
            (f.F.Compile.fn_name ^ " leaf") f.F.Compile.is_leaf r.A.Redzone.c_leaf;
          Alcotest.(check int)
            (f.F.Compile.fn_name ^ " frame")
            f.F.Compile.frame_words r.A.Redzone.c_frame_words;
          Alcotest.(check int)
            (f.F.Compile.fn_name ^ " ostack")
            f.F.Compile.max_ostack r.A.Redzone.c_max_ostack)
        c.F.Compile.fns)
    audit_suite

let redzone_detects_injected_elision () =
  let c = F.Compile.compile (F.Programs.fib ~n:5) in
  let victim =
    match
      Array.to_list c.F.Compile.fns
      |> List.find_opt (fun (f : F.Compile.cfn) -> not f.F.Compile.is_leaf)
    with
    | Some f -> f
    | None -> Alcotest.fail "no non-leaf function in fib"
  in
  (* claim the recursive function is a small leaf: the elision rule
     would skip its overflow check *)
  let doctored =
    { victim with F.Compile.is_leaf = true; F.Compile.frame_words = 8 }
  in
  Alcotest.(check bool)
    "honest claim passes" true
    (A.Redzone.audit_fn ~red_zone:16 c victim = None);
  match A.Redzone.audit_fn ~red_zone:16 c doctored with
  | Some
      {
        A.Diag.kind = A.Diag.Redzone_unsound { computed_leaf; claimed_leaf; _ };
        verdict = A.Diag.Must;
        _;
      } ->
      Alcotest.(check bool) "computed non-leaf" false computed_leaf;
      Alcotest.(check bool) "claimed leaf" true claimed_leaf
  | Some d -> Alcotest.failf "wrong diagnostic: %s" (A.Diag.to_string d)
  | None -> Alcotest.fail "unsound elision not detected"

let tiny_frame_never_flagged () =
  (* over-reservation is safe: inflating the claimed frame must not
     produce a finding *)
  let c = F.Compile.compile (F.Programs.fib ~n:5) in
  Array.iter
    (fun (f : F.Compile.cfn) ->
      let inflated = { f with F.Compile.frame_words = 1000 } in
      Alcotest.(check bool)
        (f.F.Compile.fn_name ^ " inflated") true
        (A.Redzone.audit_fn ~red_zone:16 c inflated = None))
    c.F.Compile.fns

(* The macro suite's modeled inventories obey the same elision rule the
   audit recomputes (§5.2): Fn_meta.checked and Otss.needs_check agree
   on every shape class at every red zone. *)
let macro_inventory_agrees_with_otss () =
  List.iter
    (fun kind ->
      let is_leaf = kind <> M.Fn_meta.Nonleaf in
      let frame_words = M.Fn_meta.frame_words_of_kind kind in
      List.iter
        (fun rz ->
          Alcotest.(check bool)
            (Printf.sprintf "red zone %d" rz)
            (F.Otss.needs_check ~red_zone:rz ~is_leaf ~frame_words)
            (M.Fn_meta.checked ~red_zone:(Some rz) kind))
        [ 8; 16; 32; 64 ])
    [ M.Fn_meta.Leaf_small; M.Fn_meta.Leaf_mid; M.Fn_meta.Leaf_big;
      M.Fn_meta.Nonleaf ]

(* ------------------------------------------------------------------ *)
(* Frame metadata (max_ostack) unit tests. *)

let max_ostack_values () =
  let ostack p =
    let c = F.Compile.compile p in
    (Array.to_list c.F.Compile.fns
    |> List.find (fun (f : F.Compile.cfn) -> f.F.Compile.fn_name = "main"))
      .F.Compile.max_ostack
  in
  Alcotest.(check int) "constant" 1 (ostack (prog [ fn "main" [] (F.Ir.Int 7) ]));
  Alcotest.(check int) "nested binop" 3
    (ostack
       (prog
          [
            fn "main" []
              (F.Ir.Binop
                 ( F.Ir.Add,
                   F.Ir.Int 1,
                   F.Ir.Binop (F.Ir.Add, F.Ir.Int 2, F.Ir.Int 3) ));
          ]));
  (* a trap handler is entered at its recorded operand depth plus
     [payload; id] *)
  Alcotest.(check int) "trap handler entry" 4
    (ostack
       (prog
          [ fn "main" [] (F.Ir.Trywith (F.Ir.Int 1, [ ("A", "x", F.Ir.Var "x") ])) ]))

(* ------------------------------------------------------------------ *)
(* Printer injectivity (satellite of the round-trip fix): structurally
   distinct programs render distinctly. *)

let prop_expr_printer_injective =
  QCheck.Test.make ~name:"generated programs render injectively" ~count:200
    QCheck.(pair (int_bound 5000) (int_bound 5000))
    (fun (s1, s2) ->
      let p1 = C.Gen.program_of_seed s1 and p2 = C.Gen.program_of_seed s2 in
      p1 = p2 || F.Ir.program_to_string p1 <> F.Ir.program_to_string p2)

let instr_printer_distinct_heads () =
  let samples =
    [
      F.Ir.Const 0; F.Ir.Load 0; F.Ir.Store 0; F.Ir.Dup; F.Ir.Pop;
      F.Ir.Bin F.Ir.Add; F.Ir.Jump 0; F.Ir.JumpIfNot 0; F.Ir.CallI 0;
      F.Ir.Ret; F.Ir.PushtrapI 0; F.Ir.PoptrapI; F.Ir.RaiseI 0;
      F.Ir.ReraiseI; F.Ir.PerformI 0; F.Ir.HandleI 0; F.Ir.ContinueI;
      F.Ir.DiscontinueI 0; F.Ir.ExtcallI (0, 0); F.Ir.Stop;
    ]
  in
  let strs = List.map F.Ir.instr_to_string samples in
  let sorted = List.sort_uniq compare strs in
  Alcotest.(check int)
    "every instruction constructor prints distinctly" (List.length samples)
    (List.length sorted)

(* ------------------------------------------------------------------ *)
(* In-test soundness fuzz: the campaign analyzes every generated
   program and holds its Safe/Must claims against all three backends. *)

let soundness_fuzz_smoke () =
  let stats =
    C.Fuzz.campaign ~seed:23 ~count:150 ~dwarf:false ~audit:false ~analyze:true
      ()
  in
  Alcotest.(check int) "all programs analyzed" 150 stats.C.Fuzz.analyzed;
  Alcotest.(check bool) "dispatches checked" true (stats.C.Fuzz.dispatch_checks > 0);
  Alcotest.(check int) "one bound table per program" 150 stats.C.Fuzz.bound_checks;
  match stats.C.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "soundness failure:\n%s" (C.Fuzz.failure_to_string f)

let suite =
  [
    test "corpus verdict table" corpus_verdict_table;
    test "checker catches unsound claims" checker_catches_unsound_claims;
    test "possibly-unhandled flagged" possibly_unhandled_flagged;
    test "effect-across-C-frame flagged" effect_across_c_frame_flagged;
    test "may-resume-twice flagged" may_resume_twice_flagged;
    test "may-leak flagged" may_leak_flagged;
    test "dead exn clause flagged" dead_exn_clause_flagged;
    test "clean programs have no findings" clean_programs_have_no_findings;
    test "diagnostics are deterministic" diagnostics_are_deterministic;
    test "red-zone audit agrees on built-ins" redzone_agrees_on_builtins;
    test "red-zone recomputation matches compiler" redzone_matches_compiler_metadata;
    test "red-zone audit detects injected elision" redzone_detects_injected_elision;
    test "over-reservation never flagged" tiny_frame_never_flagged;
    test "macro inventory agrees with otss" macro_inventory_agrees_with_otss;
    test "max_ostack unit values" max_ostack_values;
    QCheck_alcotest.to_alcotest prop_expr_printer_injective;
    test "instr printer distinct heads" instr_printer_distinct_heads;
    test "soundness fuzz smoke" soundness_fuzz_smoke;
  ]
