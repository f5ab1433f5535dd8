(* Handler resolution and cost bounds: classification and shadowing
   unit cases, the static-to-runtime identity maps, dynamic dispatch
   agreement on the built-ins, measured-counters-vs-static-bounds under
   all four stack policies, the corpus × policy soundness matrix, the
   checker's ability to catch injected violations, diagnostic dedup and
   file:line witness rendering, and the campaign's resolution-census
   metrics. *)

module C = Retrofit_conformance
module A = Retrofit_analysis
module F = Retrofit_fiber
module Counter = Retrofit_util.Counter
module Metrics = Retrofit_metrics.Metrics
let test name f = Alcotest.test_case name `Quick f

(* Same table as `retrofit lint`. *)
let builtin_cfun_model = function
  | "c_id" | "list_pending" -> A.Cfg.Pure
  | "c_cb" -> A.Cfg.Calls_back "ocaml_id"
  | "ocaml_to_c" -> A.Cfg.Calls_back "c_to_ocaml"
  | _ -> A.Cfg.Opaque

let analyze p = A.Analyze.analyze ~cfun_model:builtin_cfun_model p

let fn name params body =
  { F.Ir.fn_name = name; F.Ir.params = params; F.Ir.body = body }

let prog fns = { F.Ir.fns; F.Ir.main = "main" }

let handler_of label body_fn =
  F.Ir.Handle
    {
      F.Ir.body_fn;
      F.Ir.body_args = [];
      F.Ir.retc = "hret";
      F.Ir.exncs = [];
      F.Ir.effcs = [ (label, "heff") ];
    }

let perform_helpers =
  [
    fn "p" [] (F.Ir.Perform ("E", F.Ir.Int 0));
    fn "hret" [ "x" ] (F.Ir.Var "x");
    fn "heff" [ "v"; "k" ] (F.Ir.Continue (F.Ir.Var "k", F.Ir.Var "v"));
  ]

(* [n] distinct handle specs, all installing a handler for E around the
   same perform site. *)
let fanout_prog n =
  let wrappers =
    List.init n (fun i -> fn (Printf.sprintf "w%d" i) [] (handler_of "E" "p"))
  in
  let body =
    List.fold_left
      (fun acc i -> F.Ir.Seq (acc, F.Ir.Call (Printf.sprintf "w%d" i, [])))
      (F.Ir.Call ("w0", []))
      (List.init (n - 1) (fun i -> i + 1))
  in
  prog (perform_helpers @ wrappers @ [ fn "main" [] body ])

let site_of_fn r name =
  match
    List.filter
      (fun (s : A.Resolve.site) -> s.A.Resolve.r_fn = name)
      (A.Resolve.all_sites r.A.Analyze.resolve)
  with
  | [ s ] -> s
  | a -> Alcotest.failf "%s: expected one perform site, got %d" name (List.length a)

(* ------------------------------------------------------------------ *)
(* Classification and shadowing. *)

let classification_by_fanout () =
  let klass n =
    let r = analyze (fanout_prog n) in
    let s = site_of_fn r "p" in
    Alcotest.(check bool) "no boundary" false (s.A.Resolve.r_top || s.A.Resolve.r_via_c);
    Alcotest.(check int) "candidate count" n (A.Bits.cardinal s.A.Resolve.r_cands);
    A.Resolve.klass_to_string s.A.Resolve.r_class
  in
  Alcotest.(check string) "1 outcome is mono" "mono" (klass 1);
  Alcotest.(check string) "2 outcomes are poly" "poly" (klass 2);
  Alcotest.(check string) "4 outcomes are poly" "poly" (klass 4);
  Alcotest.(check string) "5 outcomes are mega" "mega" (klass 5);
  (* and only the megamorphic site is a diagnostic *)
  let diags n = A.Resolve.diagnostics (analyze (fanout_prog n)).A.Analyze.resolve in
  Alcotest.(check int) "poly not flagged" 0 (List.length (diags 4));
  match diags 5 with
  | [ { A.Diag.kind = A.Diag.Megamorphic_dispatch { effect_name = "E"; outcomes = 5 };
        verdict = A.Diag.May; _ } ] -> ()
  | l -> Alcotest.failf "expected one megamorphic May finding, got %d" (List.length l)

let nearest_handler_shadows () =
  (* main installs an (unreachable) outer handler for E; mid installs
     the inner one the perform actually reaches *)
  let p =
    prog
      (perform_helpers
      @ [
          fn "heff2" [ "v"; "k" ] (F.Ir.Continue (F.Ir.Var "k", F.Ir.Var "v"));
          fn "mid" [] (handler_of "E" "p");
          fn "main" []
            (F.Ir.Handle
               {
                 F.Ir.body_fn = "mid";
                 F.Ir.body_args = [];
                 F.Ir.retc = "hret";
                 F.Ir.exncs = [];
                 F.Ir.effcs = [ ("E", "heff2") ];
               });
        ])
  in
  let r = analyze p in
  let s = site_of_fn r "p" in
  Alcotest.(check string) "mono under nesting" "mono"
    (A.Resolve.klass_to_string s.A.Resolve.r_class);
  Alcotest.(check bool) "no boundary" false (s.A.Resolve.r_top || s.A.Resolve.r_via_c);
  let printed = A.Resolve.site_to_string r.A.Analyze.resolve s in
  Alcotest.(check bool)
    (Printf.sprintf "candidate is the inner spec (%s)" printed)
    true
    (let sub = "in mid" in
     let rec mem i =
       i + String.length sub <= String.length printed
       && (String.sub printed i (String.length sub) = sub || mem (i + 1))
     in
     mem 0)

let boundary_flags_on_builtins () =
  let r = analyze F.Programs.unhandled_effect in
  let s = site_of_fn r "main" in
  Alcotest.(check bool) "unhandled_effect is +toplevel" true s.A.Resolve.r_top;
  let r = analyze F.Programs.effect_in_callback in
  let s = site_of_fn r "c_to_ocaml" in
  Alcotest.(check bool) "effect_in_callback is +via-c" true s.A.Resolve.r_via_c

(* ------------------------------------------------------------------ *)
(* Static-to-runtime identity maps. *)

(* A [Handle] in another [Handle]'s body args: the inner one is second
   in pre-order (the printed [spec#N]) but first in compile order (its
   spec id and handle-descriptor index). *)
let nested_handles =
  let handle body_fn body_args effcs =
    F.Ir.Handle
      { F.Ir.body_fn; F.Ir.body_args; F.Ir.retc = "hret"; F.Ir.exncs = []; F.Ir.effcs }
  in
  prog
    (perform_helpers
    @ [
        fn "nb_inner" [] (F.Ir.Perform ("E", F.Ir.Int 1));
        fn "nb_outer" [ "x" ]
          (F.Ir.Binop
             (F.Ir.Add, F.Ir.Perform ("E", F.Ir.Var "x"), F.Ir.Perform ("F", F.Ir.Int 2)));
        fn "main" []
          (handle "nb_outer"
             [ handle "nb_inner" [] [ ("E", "heff") ] ]
             [ ("E", "heff"); ("F", "heff") ]);
      ])

let rt_suite =
  [
    ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:3);
    ("effect_depth", F.Programs.effect_depth ~depth:3 ~iters:2);
    ("counter_effect", F.Programs.counter_effect ~upto:4);
    ("cross_resume", F.Programs.cross_resume);
    ("one_shot_violation", F.Programs.one_shot_violation);
    ("discontinue_cleanup", F.Programs.discontinue_cleanup);
    ("unhandled_effect", F.Programs.unhandled_effect);
    ("poly2", fanout_prog 2);
    ("mega5", fanout_prog 5);
    ("nested_handles", nested_handles);
  ]

let runtime_map_is_total_and_inverse () =
  List.iter
    (fun (name, p) ->
      let r = analyze p in
      let rt = A.Resolve.runtime_map r.A.Analyze.resolve in
      let sites = A.Resolve.all_sites r.A.Analyze.resolve in
      (* every statically enumerated site owns exactly one PerformI pc *)
      List.iter
        (fun (s : A.Resolve.site) ->
          let owners =
            Hashtbl.fold
              (fun _ s' n -> if s' == s then n + 1 else n)
              rt 0
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s#%d mapped once" name s.A.Resolve.r_fn
               s.A.Resolve.r_idx)
            1 owners)
        sites;
      (* spec ids are handle indices: spec [i] and descriptor [i]
         describe the same installation, and every descriptor has one *)
      let c = r.A.Analyze.compiled in
      let cfg = A.Cfg.build ~cfun_model:builtin_cfun_model c p in
      Alcotest.(check int)
        (name ^ ": one spec per handle descriptor")
        (Array.length c.F.Compile.handles)
        (Array.length cfg.A.Cfg.specs);
      Array.iteri
        (fun i (s : A.Cfg.spec) ->
          let h = s.A.Cfg.sp_id in
          let d = c.F.Compile.handles.(h) in
          let fid g = Hashtbl.find c.F.Compile.fn_ids g in
          Alcotest.(check int) (Printf.sprintf "%s: spec %d is at its id" name i) i h;
          Alcotest.(check (pair int (list (pair int int))))
            (Printf.sprintf "%s: handle %d round-trips" name h)
            (d.F.Compile.h_body, d.F.Compile.h_effcs)
            ( fid s.A.Cfg.sp.F.Ir.body_fn,
              List.map
                (fun (l, g) -> (F.Compile.eff_id c l, fid g))
                s.A.Cfg.sp.F.Ir.effcs ))
        cfg.A.Cfg.specs)
    rt_suite

(* Reports keep the pre-order [spec#N] where compile order differs. *)
let nested_handles_print_preorder_ids () =
  Alcotest.(check string)
    "resolution report"
    "handler resolution: mono=3 poly=0 mega=0\n\
    \  nb_inner#0 perform E: mono {spec#1 in main} [main -> nb_inner]\n\
    \  nb_outer#0 perform E: mono {spec#0 in main} [main -> nb_outer]\n\
    \  nb_outer#1 perform F: mono {spec#0 in main} [main -> nb_outer]\n"
    (A.Resolve.report (analyze nested_handles).A.Analyze.resolve)

(* Label and spec sets past one machine word agree with [Set]. *)
let bitsets_agree_with_set () =
  let module IS = Set.Make (Int) in
  let sets =
    List.map IS.of_list
      [
        []; [ 0 ]; [ 3; 62 ]; [ 62; 63 ]; [ 1; 64; 130 ]; [ 1; 70; 130 ];
        List.init 140 Fun.id; [ 200 ];
      ]
  in
  let bits s = A.Bits.of_list (IS.elements s) in
  let elements b = List.rev (A.Bits.fold List.cons b []) in
  List.iter
    (fun a ->
      Alcotest.(check (list int)) "fold" (IS.elements a) (elements (bits a));
      Alcotest.(check int) "cardinal" (IS.cardinal a) (A.Bits.cardinal (bits a));
      List.iter
        (fun b ->
          Alcotest.(check (list int)) "union" (IS.elements (IS.union a b))
            (elements (A.Bits.union (bits a) (bits b)));
          Alcotest.(check bool) "diff is normalised" true
            (A.Bits.diff (bits a) (bits b) = bits (IS.diff a b));
          Alcotest.(check bool) "subset" (IS.subset a b) (A.Bits.subset (bits a) (bits b)))
        sets;
      List.iter
        (fun i -> Alcotest.(check bool) "mem" (IS.mem i a) (A.Bits.mem i (bits a)))
        [ 0; 1; 62; 63; 64; 139; 140; 200; 500 ])
    sets

(* The one fixpoint driver refuses to hand back a non-fixpoint. *)
let fixpoint_cap_raises () =
  let rounds = ref 0 in
  Alcotest.check_raises "a step that always changes" A.Cfg.No_fixpoint (fun () ->
      A.Cfg.fixpoint (fun () ->
          incr rounds;
          true));
  Alcotest.(check int) "rounds run" 1000 !rounds;
  rounds := 0;
  A.Cfg.fixpoint (fun () ->
      incr rounds;
      !rounds < 3);
  Alcotest.(check int) "a converging step stops at its first quiet round" 3 !rounds

(* ------------------------------------------------------------------ *)
(* One handler-context fixpoint, two readers: the escape analysis's
   perform lints read their boundary facts from [Resolve.boundary], so
   they must fire exactly at the sites whose resolution carries the
   matching flag, and name a C function that can call back. *)

let reentrant_cfuns model (p : F.Ir.program) =
  let out = ref [] in
  List.iter
    (fun (f : F.Ir.fn) ->
      A.Cfg.iter_expr
        (function
          | F.Ir.Extcall (c, _) when model c <> A.Cfg.Pure -> out := c :: !out
          | _ -> ())
        f.F.Ir.body)
    p.F.Ir.fns;
  !out

(* The number of [Possibly_unhandled] and [Effect_across_c_frame]
   findings per reachable perform site, keyed like the diagnostics (a
   site's function and printed expression), after checking that the two
   readers agree on every site. *)
let check_boundary_readers model name (p : F.Ir.program) =
  let r = A.Analyze.analyze ~cfun_model:model p in
  let cfuns = reentrant_cfuns model p in
  let diags = r.A.Analyze.report.A.Diag.diags in
  let at (s : A.Resolve.site) (d : A.Diag.t) =
    d.A.Diag.fn = s.A.Resolve.r_fn
    && d.A.Diag.site = F.Ir.expr_to_string s.A.Resolve.r_site
  in
  let sites = A.Resolve.all_sites r.A.Analyze.resolve in
  List.map
    (fun (s : A.Resolve.site) ->
      let where =
        Printf.sprintf "%s: %s#%d" name s.A.Resolve.r_fn s.A.Resolve.r_idx
      in
      let unhandled =
        List.filter
          (fun d ->
            at s d
            &&
            match d.A.Diag.kind with
            | A.Diag.Possibly_unhandled _ -> true
            | _ -> false)
          diags
      in
      let across =
        List.filter_map
          (fun d ->
            match d.A.Diag.kind with
            | A.Diag.Effect_across_c_frame { cfun; _ } when at s d -> Some cfun
            | _ -> None)
          diags
      in
      Alcotest.(check bool)
        (where ^ " possibly-unhandled iff +toplevel")
        s.A.Resolve.r_top (unhandled <> []);
      Alcotest.(check bool)
        (where ^ " effect-across-C-frame iff +via-c")
        s.A.Resolve.r_via_c (across <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s can call back" where c)
            true (List.mem c cfuns))
        across;
      (s, List.length unhandled, List.length across))
    sites

let builtins =
  rt_suite
  @ [
      ("extcall", F.Programs.extcall ~iters:3);
      ("callback", F.Programs.callback ~iters:3);
      ("meander", F.Programs.meander);
      ("effect_in_callback", F.Programs.effect_in_callback);
      ("multishot_choice", F.Programs.multishot_choice);
      ("suspended_requests", F.Programs.suspended_requests ~n:3);
    ]

let boundary_readers_agree () =
  let flagged = ref 0 in
  let count l =
    List.iter
      (fun ((s : A.Resolve.site), _, _) ->
        if s.A.Resolve.r_top || s.A.Resolve.r_via_c then incr flagged)
      l
  in
  List.iter
    (fun (name, p) -> count (check_boundary_readers builtin_cfun_model name p))
    builtins;
  List.iter
    (fun (e : C.Corpus.entry) ->
      count
        (check_boundary_readers C.Static.cfun_model e.C.Corpus.name
           e.C.Corpus.program))
    C.Corpus.entries;
  for i = 0 to 299 do
    let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:1 i) in
    count (check_boundary_readers C.Static.cfun_model (Printf.sprintf "gen#%d" i) p)
  done;
  (* the programs do reach boundaries, so the agreement is not vacuous *)
  Alcotest.(check bool) "flagged sites checked" true (!flagged > 10)

let two_callbacks_one_barrier_finding () =
  (* two different C functions call back into the same performing
     function: the site is +via-c, and the lint names one of them once *)
  let model = function
    | "cb_a" | "cb_b" -> A.Cfg.Calls_back "p"
    | _ -> A.Cfg.Pure
  in
  let p =
    prog
      [
        fn "p" [ "x" ] (F.Ir.Perform ("E", F.Ir.Var "x"));
        fn "main" []
          (F.Ir.Seq
             ( F.Ir.Extcall ("cb_a", [ F.Ir.Int 1 ]),
               F.Ir.Extcall ("cb_b", [ F.Ir.Int 2 ]) ));
      ]
  in
  match check_boundary_readers model "two callbacks" p with
  | [ (s, unhandled, across) ] ->
      Alcotest.(check string) "the site is in p" "p" s.A.Resolve.r_fn;
      Alcotest.(check bool) "+via-c" true s.A.Resolve.r_via_c;
      Alcotest.(check bool) "not +toplevel" false s.A.Resolve.r_top;
      Alcotest.(check int) "no possibly-unhandled finding" 0 unhandled;
      Alcotest.(check int) "one effect-across-C-frame finding" 1 across
  | l -> Alcotest.failf "expected one perform site, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Dynamic agreement: every observed dispatch lands in the candidate
   set; handler-less boundaries only at flagged sites. *)

let observe ?(config = F.Config.mc) (r : A.Analyze.result) =
  let rt = A.Resolve.runtime_map r.A.Analyze.resolve in
  let obs = ref [] in
  let on_perform ~site ~eff:_ ~handler = obs := (site, handler) :: !obs in
  let _outcome, counters = F.Machine.run ~on_perform config r.A.Analyze.compiled in
  (rt, List.rev !obs, counters)

let check_obs name rt obs =
  List.iter
    (fun (pc, handler) ->
      match Hashtbl.find_opt rt pc with
      | None -> Alcotest.failf "%s: perform at unmapped pc %d" name pc
      | Some s ->
          if handler = -1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s: boundary at flagged site" name)
              true
              (s.A.Resolve.r_top || s.A.Resolve.r_via_c)
          else
            let sp = handler in
            Alcotest.(check bool)
              (Printf.sprintf "%s: spec#%d in candidates of %s#%d" name sp
                 s.A.Resolve.r_fn s.A.Resolve.r_idx)
              true
              (sp >= 0 && A.Bits.mem sp s.A.Resolve.r_cands))
    obs

let dispatch_agreement_on_builtins () =
  let total = ref 0 in
  List.iter
    (fun (name, p) ->
      let r = analyze p in
      let rt, obs, _ = observe r in
      total := !total + List.length obs;
      check_obs name rt obs)
    rt_suite;
  (* the suite actually exercises dispatch *)
  Alcotest.(check bool) "observed performs" true (!total > 10)

let dispatch_agreement_multishot () =
  let config = F.Config.with_multishot true F.Config.mc in
  List.iter
    (fun (name, p) ->
      let r = analyze p in
      let rt, obs, _ = observe ~config r in
      check_obs (name ^ "/ms") rt obs)
    [
      ("multishot_choice", F.Programs.multishot_choice);
      ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:3);
      ("one_shot_violation", F.Programs.one_shot_violation);
    ]

(* ------------------------------------------------------------------ *)
(* Measured counters never exceed their finite static bounds, under
   every stack policy. *)

let bounds_hold_on_builtins () =
  let programs =
    [
      ("fib", F.Programs.fib ~n:5);
      ("exnraise", F.Programs.exnraise ~iters:2);
      ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:3);
      ("effect_depth", F.Programs.effect_depth ~depth:3 ~iters:2);
      ("counter_effect", F.Programs.counter_effect ~upto:4);
      ("cross_resume", F.Programs.cross_resume);
      ("one_shot_violation", F.Programs.one_shot_violation);
      ("discontinue_cleanup", F.Programs.discontinue_cleanup);
      ("poly2", fanout_prog 2);
    ]
  in
  let finite_checked = ref 0 in
  List.iter
    (fun (name, p) ->
      let r = analyze p in
      List.iter
        (fun (pname, policy) ->
          let config = F.Config.with_policy policy F.Config.mc in
          let _rt, _obs, counters = observe ~config r in
          List.iter
            (fun (cname, b) ->
              match A.Costbound.finite b with
              | None -> ()
              | Some limit ->
                  incr finite_checked;
                  let v = Counter.value counters cname in
                  if v > limit then
                    Alcotest.failf "%s under %s: %s measured %d > bound %d" name
                      pname (Counter.to_string cname) v limit)
            (A.Costbound.counter_bounds r.A.Analyze.cost ~policy ~multishot:false
               ~red_zone:F.Config.mc.F.Config.red_zone))
        F.Stack_policy.all)
    programs;
  Alcotest.(check bool) "finite bounds were actually checked" true
    (!finite_checked > 100)

let costbound_unit_values () =
  let loop =
    prog
      [
        fn "leaf" [] (F.Ir.Int 1);
        fn "main" [] (F.Ir.Repeat (F.Ir.Int 3, F.Ir.Call ("leaf", [])));
      ]
  in
  let r = analyze loop in
  (match A.Costbound.inv r.A.Analyze.cost "leaf" with
  | A.Costbound.Fin n ->
      if n < 3 || n > 10 then
        Alcotest.failf "leaf invocation bound %d not in [3,10]" n
  | A.Costbound.Inf -> Alcotest.fail "constant loop widened to inf");
  let fib = analyze (F.Programs.fib ~n:5) in
  (match A.Costbound.inv fib.A.Analyze.cost "fib" with
  | A.Costbound.Inf -> ()
  | A.Costbound.Fin n -> Alcotest.failf "recursive fib claimed finite inv %d" n);
  let t = A.Costbound.totals fib.A.Analyze.cost in
  Alcotest.(check string) "fib performs bound" "0"
    (A.Costbound.bound_to_string t.A.Costbound.t_performs);
  Alcotest.(check string) "fib calls unbounded" "inf"
    (A.Costbound.bound_to_string t.A.Costbound.t_calls)

(* ------------------------------------------------------------------ *)
(* Satellite: the 10-entry corpus under all four stack policies — the
   static verdict table is policy-invariant, no policy's observed
   outcome, dispatch stream or counter table contradicts the claims. *)

let corpus_policy_matrix () =
  List.iter
    (fun (e : C.Corpus.entry) ->
      let c = C.Static.analyze e.C.Corpus.program in
      let vu, vo = C.Static.verdicts ~one_shot:true c in
      let rt = C.Static.runtime_map c in
      let default_outcome = ref None in
      List.iter
        (fun (pname, policy) ->
          let config = F.Config.with_policy policy F.Config.mc in
          let obs = ref [] in
          let fr =
            C.Fiber_backend.run ~config
              ~on_perform:(fun ~site ~eff:_ ~handler ->
                obs := (site, handler) :: !obs)
              e.C.Corpus.program
          in
          let o = fr.C.Fiber_backend.outcome in
          (match !default_outcome with
          | None -> default_outcome := Some o
          | Some _ -> ());
          (* a policy-side Stack_overflow is reservation exhaustion, not
             a verdict the analyzer speaks about (mirrors the campaign's
             skip rule) *)
          let skip =
            match o with
            | C.Outcome.Exn ("Stack_overflow", _) ->
                Some o <> !default_outcome
            | _ -> false
          in
          if not skip then begin
            (match C.Static.contradiction ~one_shot:true c o with
            | Some msg ->
                Alcotest.failf "%s under %s: %s" e.C.Corpus.name pname msg
            | None -> ());
            (match C.Static.dispatch_contradiction c rt (List.rev !obs) with
            | Some msg ->
                Alcotest.failf "%s under %s: %s" e.C.Corpus.name pname msg
            | None -> ());
            (match
               C.Static.bound_contradiction c ~config fr.C.Fiber_backend.counters
             with
            | Some msg ->
                Alcotest.failf "%s under %s: %s" e.C.Corpus.name pname msg
            | None -> ())
          end;
          (* the claims are static: identical under every policy *)
          let vu', vo' = C.Static.verdicts ~one_shot:true c in
          Alcotest.(check string)
            (e.C.Corpus.name ^ " unhandled invariant under " ^ pname)
            (A.Diag.verdict_to_string vu)
            (A.Diag.verdict_to_string vu');
          Alcotest.(check string)
            (e.C.Corpus.name ^ " one-shot invariant under " ^ pname)
            (A.Diag.verdict_to_string vo)
            (A.Diag.verdict_to_string vo'))
        F.Stack_policy.all)
    C.Corpus.entries

(* ------------------------------------------------------------------ *)
(* The checkers must catch injected violations in both directions. *)

let checker_catches_injected_violations () =
  (* a corpus entry with at least one non-boundary site and one finite
     counter bound *)
  let found_site = ref false and found_bound = ref false in
  List.iter
    (fun (e : C.Corpus.entry) ->
      let c = C.Static.analyze e.C.Corpus.program in
      let rt = C.Static.runtime_map c in
      (* honest run first: no contradiction *)
      let fr = C.Fiber_backend.run e.C.Corpus.program in
      (match fr.C.Fiber_backend.outcome with
      | C.Outcome.Model_error _ -> ()
      | _ -> (
          match
            C.Static.bound_contradiction c ~config:F.Config.mc fr.C.Fiber_backend.counters
          with
          | Some msg -> Alcotest.failf "%s: honest run flagged: %s" e.C.Corpus.name msg
          | None -> ()));
      (* a handler-less boundary at a handlers-only site must be caught *)
      Hashtbl.iter
        (fun pc (s : A.Resolve.site) ->
          if (not !found_site) && (not s.A.Resolve.r_top) && not s.A.Resolve.r_via_c
          then begin
            found_site := true;
            (match C.Static.dispatch_contradiction c rt [ (pc, -1) ] with
            | Some _ -> ()
            | None ->
                Alcotest.failf "%s: injected boundary dispatch not caught"
                  e.C.Corpus.name);
            (* and a perform at a pc the analysis never mapped *)
            match C.Static.dispatch_contradiction c rt [ (max_int, 0) ] with
            | Some _ -> ()
            | None -> Alcotest.fail "unmapped pc not caught"
          end)
        rt;
      (* an inflated counter above a finite bound must be caught *)
      if not !found_bound then begin
        let policy = snd (List.hd F.Stack_policy.all) in
        let bounds =
          C.Static.bound_contradiction c ~config:(F.Config.with_policy policy F.Config.mc)
        in
        let counters = Counter.create () in
        match
          List.find_opt
            (fun (_, b) -> A.Costbound.finite b <> None)
            (A.Costbound.counter_bounds
               c.A.Analyze.cost ~policy ~multishot:false
               ~red_zone:16)
        with
        | None -> ()
        | Some (cname, b) ->
            found_bound := true;
            let limit = Option.get (A.Costbound.finite b) in
            Counter.add counters cname (limit + 1);
            (match bounds counters with
            | Some _ -> ()
            | None ->
                Alcotest.failf "%s: counter %s over bound %d not caught"
                  e.C.Corpus.name (Counter.to_string cname) limit)
      end)
    C.Corpus.entries;
  Alcotest.(check bool) "a non-boundary site existed" true !found_site;
  Alcotest.(check bool) "a finite bound existed" true !found_bound

(* ------------------------------------------------------------------ *)
(* Diagnostic dedup and file:line witness rendering. *)

let dedup_collapses_witness_paths () =
  let d path =
    {
      A.Diag.kind = A.Diag.Possibly_unhandled { effect_name = "E" };
      A.Diag.verdict = A.Diag.May;
      A.Diag.fn = "f";
      A.Diag.path;
      A.Diag.site = "(perform E (int 0))";
    }
  in
  (match A.Diag.dedup [ d [ "main"; "a"; "f" ]; d [ "main"; "f" ]; d [ "main"; "b"; "f" ] ] with
  | [ one ] ->
      Alcotest.(check (list string))
        "shortest witness kept" [ "main"; "f" ] one.A.Diag.path
  | l -> Alcotest.failf "expected one finding after dedup, got %d" (List.length l));
  (* different sites do not collapse *)
  let d2 = { (d [ "main" ]) with A.Diag.site = "(perform E (int 1))" } in
  Alcotest.(check int) "distinct sites kept" 2
    (List.length (A.Diag.dedup [ d [ "main" ]; d2 ]))

let locator_renders_file_lines () =
  let p =
    prog
      [
        fn "aux" [ "x" ] (F.Ir.Var "x");
        fn "main" [] (F.Ir.Call ("aux", [ F.Ir.Int 1 ]));
      ]
  in
  let loc = A.Diag.locator ~file:"demo" p in
  Alcotest.(check (option string)) "aux line" (Some "demo:1") (loc "aux");
  Alcotest.(check (option string)) "main line" (Some "demo:2") (loc "main");
  Alcotest.(check (option string)) "unknown fn" None (loc "nope");
  let d =
    {
      A.Diag.kind = A.Diag.Possibly_unhandled { effect_name = "E" };
      A.Diag.verdict = A.Diag.May;
      A.Diag.fn = "aux";
      A.Diag.path = [ "main"; "aux" ];
      A.Diag.site = "(perform E (int 0))";
    }
  in
  let s = A.Diag.to_string ~loc d in
  let contains sub =
    let rec mem i =
      i + String.length sub <= String.length s
      && (String.sub s i (String.length sub) = sub || mem (i + 1))
    in
    mem 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "witness steps clickable (%s)" s)
    true
    (contains "main(demo:2)" && contains "aux(demo:1)")

(* ------------------------------------------------------------------ *)
(* Satellite: the campaign's resolution census lands in the metrics
   registry, one increment per site per analyzed program. *)

let campaign_records_resolution_metrics () =
  let seed = 23 and count = 30 in
  let expected = Hashtbl.create 3 in
  for i = 0 to count - 1 do
    let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed i) in
    let c = C.Static.analyze p in
    List.iter
      (fun (s : A.Resolve.site) ->
        let k = A.Resolve.klass_to_string s.A.Resolve.r_class in
        Hashtbl.replace expected k
          (1 + Option.value ~default:0 (Hashtbl.find_opt expected k)))
      (A.Resolve.all_sites c.A.Analyze.resolve)
  done;
  Metrics.scoped (fun () ->
      let before =
        List.map
          (fun k ->
            (k, Metrics.get ~labels:[ ("class", k) ] "perform_site_resolution_total"))
          [ "mono"; "poly"; "mega" ]
      in
      let stats =
        C.Fuzz.campaign ~seed ~count ~dwarf:false ~audit:false ~analyze:true ()
      in
      (match stats.C.Fuzz.failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "campaign failure:\n%s" (C.Fuzz.failure_to_string f));
      Alcotest.(check bool) "dispatches were checked" true
        (stats.C.Fuzz.dispatch_checks > 0);
      Alcotest.(check int) "one bound table per program" count
        stats.C.Fuzz.bound_checks;
      List.iter
        (fun k ->
          Alcotest.(check int)
            ("class " ^ k)
            (Option.value ~default:0 (Hashtbl.find_opt expected k))
            (Metrics.get ~labels:[ ("class", k) ] "perform_site_resolution_total"
            - List.assoc k before))
        [ "mono"; "poly"; "mega" ])

let suite =
  [
    test "classification by fan-out" classification_by_fanout;
    test "nearest handler shadows outer" nearest_handler_shadows;
    test "boundary flags on built-ins" boundary_flags_on_builtins;
    test "runtime map is total and inverse" runtime_map_is_total_and_inverse;
    test "nested handles print pre-order spec ids" nested_handles_print_preorder_ids;
    test "fixpoint driver raises at its cap" fixpoint_cap_raises;
    test "bitsets agree with Set past one word" bitsets_agree_with_set;
    test "boundary lints agree with resolution" boundary_readers_agree;
    test "two callbacks, one barrier finding" two_callbacks_one_barrier_finding;
    test "dispatch agreement on built-ins" dispatch_agreement_on_builtins;
    test "dispatch agreement under multishot" dispatch_agreement_multishot;
    test "measured counters within bounds (all policies)" bounds_hold_on_builtins;
    test "cost-bound unit values" costbound_unit_values;
    test "corpus x policy soundness matrix" corpus_policy_matrix;
    test "checker catches injected violations" checker_catches_injected_violations;
    test "dedup collapses witness paths" dedup_collapses_witness_paths;
    test "locator renders file:line witnesses" locator_renders_file_lines;
    test "campaign records resolution metrics" campaign_records_resolution_metrics;
  ]
