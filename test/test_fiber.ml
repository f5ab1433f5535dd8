module F = Retrofit_fiber

let test name f = Alcotest.test_case name `Quick f

let run ?cfuns cfg p =
  let compiled = F.Compile.compile p in
  F.Machine.run ?cfuns cfg compiled

let run_std cfg p = run ~cfuns:F.Programs.standard_cfuns cfg p

let expect_done ?(cfg = F.Config.mc) ?cfuns p n =
  match run ?cfuns cfg p with
  | F.Machine.Done v, _ -> Alcotest.(check int) "result" n v
  | F.Machine.Uncaught (l, _), _ -> Alcotest.failf "uncaught %s" l
  | F.Machine.Fatal m, _ -> Alcotest.failf "fatal: %s" m

let expect_uncaught ?(cfg = F.Config.mc) p label =
  match run ~cfuns:F.Programs.standard_cfuns cfg p with
  | F.Machine.Uncaught (l, _), _ -> Alcotest.(check string) "label" label l
  | F.Machine.Done v, _ -> Alcotest.failf "done %d" v
  | F.Machine.Fatal m, _ -> Alcotest.failf "fatal: %s" m

(* ---------------- Segment / Stack_cache ---------------- *)

let segment_basics () =
  let s = F.Segment.create ~base:100 ~size:10 in
  Alcotest.(check int) "limit" 100 (F.Segment.limit s);
  Alcotest.(check int) "top" 110 (F.Segment.top s);
  F.Segment.write s 105 42;
  Alcotest.(check int) "read" 42 (F.Segment.read s 105);
  Alcotest.(check bool) "contains" true (F.Segment.contains s 109);
  Alcotest.(check bool) "not contains top" false (F.Segment.contains s 110);
  Alcotest.check_raises "oob"
    (Invalid_argument "Segment: address 110 outside [100, 110)") (fun () ->
      ignore (F.Segment.read s 110))

let segment_blit () =
  let src = F.Segment.create ~base:0 ~size:4 in
  for i = 0 to 3 do
    F.Segment.write src i (i + 1)
  done;
  let dst = F.Segment.create ~base:100 ~size:8 in
  F.Segment.blit_into ~src ~dst;
  (* contents preserved at the high end *)
  for i = 0 to 3 do
    Alcotest.(check int) "word" (i + 1) (F.Segment.read dst (104 + i))
  done

let cache_roundtrip () =
  let c = F.Stack_cache.create () in
  let s = F.Segment.create ~base:0 ~size:32 in
  F.Stack_cache.put c ~size:32 s;
  Alcotest.(check int) "population" 1 (F.Stack_cache.population c);
  Alcotest.(check bool) "hit" true (F.Stack_cache.take c ~size:32 <> None);
  Alcotest.(check bool) "miss after take" true (F.Stack_cache.take c ~size:32 = None);
  Alcotest.(check bool) "size mismatch" true (F.Stack_cache.take c ~size:64 = None)

let cache_bound () =
  let c = F.Stack_cache.create ~max_per_bucket:2 () in
  for i = 0 to 4 do
    F.Stack_cache.put c ~size:16 (F.Segment.create ~base:(i * 100) ~size:16)
  done;
  Alcotest.(check int) "bounded" 2 (F.Stack_cache.population c);
  Alcotest.(check int) "words tracked" 32 (F.Stack_cache.total_words c)

let cache_passthrough () =
  (* max_per_bucket:0 degrades the cache to a pass-through *)
  let c = F.Stack_cache.create ~max_per_bucket:0 () in
  F.Stack_cache.put c ~size:16 (F.Segment.create ~base:0 ~size:16);
  Alcotest.(check bool) "retains nothing" true (F.Stack_cache.take c ~size:16 = None);
  Alcotest.(check int) "population" 0 (F.Stack_cache.population c);
  (* a machine driven through a pass-through cache still works and
     records only misses *)
  let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters:50) in
  match F.Machine.run ~cache:c F.Config.mc compiled with
  | F.Machine.Done 0, counters ->
      Alcotest.(check int) "no hits" 0
        (Retrofit_util.Counter.get counters "stack_cache_hit");
      Alcotest.(check bool) "misses counted" true
        (Retrofit_util.Counter.get counters "stack_cache_miss" > 0)
  | _ -> Alcotest.fail "pass-through cache broke the machine"

let cache_total_words_cap () =
  let c = F.Stack_cache.create ~max_per_bucket:64 ~max_total_words:40 () in
  for i = 0 to 4 do
    F.Stack_cache.put c ~size:16 (F.Segment.create ~base:(i * 100) ~size:16)
  done;
  (* 16 + 16 fit under 40; the third 16 would make 48 and is dropped *)
  Alcotest.(check int) "population capped" 2 (F.Stack_cache.population c);
  Alcotest.(check int) "words capped" 32 (F.Stack_cache.total_words c);
  ignore (F.Stack_cache.take c ~size:16);
  F.Stack_cache.put c ~size:8 (F.Segment.create ~base:900 ~size:8);
  Alcotest.(check int) "room freed by take" 24 (F.Stack_cache.total_words c)

let cache_total_words_exact () =
  (* Drive the cache with a deterministic mixed put/take workload and
     re-derive its aggregate bookkeeping from the retained segments
     after every operation: total_words must track the sum of retained
     sizes exactly and never exceed the cap. *)
  let cap = 200 in
  let c = F.Stack_cache.create ~max_per_bucket:8 ~max_total_words:cap () in
  let rng = Retrofit_util.Rng.create 5 in
  let sizes = [| 8; 16; 32; 64 |] in
  for i = 0 to 499 do
    let size = sizes.(Retrofit_util.Rng.int rng 4) in
    if Retrofit_util.Rng.bool rng then
      F.Stack_cache.put c ~size (F.Segment.create ~base:(i * 1000) ~size)
    else ignore (F.Stack_cache.take c ~size);
    let sum = ref 0 and n = ref 0 in
    F.Stack_cache.iter c (fun seg ->
        sum := !sum + F.Segment.size seg;
        incr n);
    Alcotest.(check int) "total_words = sum of retained sizes" !sum
      (F.Stack_cache.total_words c);
    Alcotest.(check int) "population = retained count" !n
      (F.Stack_cache.population c);
    Alcotest.(check bool) "cap respected" true (F.Stack_cache.total_words c <= cap)
  done

let cache_take_zeroed () =
  let c = F.Stack_cache.create () in
  let s = F.Segment.create ~base:50 ~size:24 in
  for a = 50 to 73 do
    F.Segment.write s a (a * 7)
  done;
  F.Stack_cache.put c ~size:24 s;
  (match F.Stack_cache.take c ~size:24 with
  | None -> Alcotest.fail "expected a cache hit"
  | Some seg ->
      for a = 50 to 73 do
        Alcotest.(check int) "word zeroed" 0 (F.Segment.read seg a)
      done)

(* An outgrown segment is parked without its words, keeping its shape;
   reuse gives it fresh zeroed ones. *)
let cache_dropped_words () =
  let c = F.Stack_cache.create () in
  let s = F.Segment.create ~base:50 ~size:24 in
  F.Segment.write s 60 7;
  F.Segment.drop_words s;
  Alcotest.(check int) "size kept" 24 (F.Segment.size s);
  Alcotest.check_raises "words dropped" (Invalid_argument "index out of bounds")
    (fun () -> ignore (F.Segment.read s 60));
  F.Stack_cache.put c ~size:24 s;
  match F.Stack_cache.take c ~size:24 with
  | None -> Alcotest.fail "expected a cache hit"
  | Some seg ->
      Alcotest.(check bool) "same segment" true (seg == s);
      for a = 50 to 73 do
        Alcotest.(check int) "word zeroed" 0 (F.Segment.read seg a)
      done

let cache_hit_miss_lookup_identity () =
  (* Every cached-path allocation is one lookup that is either a hit or
     a miss; the machine's counters must account for all of them. *)
  let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters:200) in
  match F.Machine.run F.Config.mc compiled with
  | F.Machine.Done _, counters ->
      let get = Retrofit_util.Counter.get counters in
      Alcotest.(check int) "hit + miss = lookups"
        (get "stack_cache_lookup")
        (get "stack_cache_hit" + get "stack_cache_miss");
      Alcotest.(check bool) "lookups happened" true (get "stack_cache_lookup" > 0)
  | _ -> Alcotest.fail "effect roundtrip failed"

let cache_scoped_stats_independent () =
  (* Two back-to-back experiments sharing one cache must each see only
     their own traffic: scoped_stats diffs around the callback, so the
     second report is independent of the first. *)
  let cache = F.Stack_cache.create () in
  let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters:100) in
  let go () =
    match F.Machine.run ~cache F.Config.mc compiled with
    | F.Machine.Done _, _ -> ()
    | _ -> Alcotest.fail "effect roundtrip failed"
  in
  let (), s1 = F.Stack_cache.scoped_stats cache go in
  let (), s2 = F.Stack_cache.scoped_stats cache go in
  Alcotest.(check bool) "first run looked up" true (s1.F.Stack_cache.lookups > 0);
  (* the cache is warm on the second run, so the split shifts toward
     hits — but the per-scope totals balance independently *)
  Alcotest.(check int) "scope 1 balances" s1.F.Stack_cache.lookups
    (s1.F.Stack_cache.hits + s1.F.Stack_cache.misses);
  Alcotest.(check int) "scope 2 balances" s2.F.Stack_cache.lookups
    (s2.F.Stack_cache.hits + s2.F.Stack_cache.misses);
  Alcotest.(check int) "same workload, same lookups" s1.F.Stack_cache.lookups
    s2.F.Stack_cache.lookups;
  Alcotest.(check bool) "warm cache hits more" true
    (s2.F.Stack_cache.hits >= s1.F.Stack_cache.hits);
  (* cumulative stats cover both scopes *)
  let total = F.Stack_cache.stats cache in
  Alcotest.(check int) "cumulative lookups"
    (s1.F.Stack_cache.lookups + s2.F.Stack_cache.lookups)
    total.F.Stack_cache.lookups

let cache_reset_stats () =
  let cache = F.Stack_cache.create () in
  let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters:50) in
  (match F.Machine.run ~cache F.Config.mc compiled with
  | F.Machine.Done _, _ -> ()
  | _ -> Alcotest.fail "effect roundtrip failed");
  Alcotest.(check bool) "stats accumulated" true
    ((F.Stack_cache.stats cache).F.Stack_cache.lookups > 0);
  F.Stack_cache.reset_stats cache;
  Alcotest.(check bool) "reset to zero" true
    (F.Stack_cache.stats cache = F.Stack_cache.zero_stats)

(* ---------------- Compiler ---------------- *)

let compile_leafness () =
  let compiled = F.Compile.compile (F.Programs.fib ~n:5) in
  let fib = Option.get (F.Compile.function_at compiled 0) in
  Alcotest.(check bool) "fib not leaf" false fib.F.Compile.is_leaf;
  let compiled =
    F.Compile.compile
      { F.Ir.fns = [ F.Ir.fn "main" [] (F.Ir.Binop (F.Ir.Add, F.Ir.Int 1, F.Ir.Int 2)) ];
        main = "main" }
  in
  Alcotest.(check bool) "main leaf" true compiled.F.Compile.fns.(0).F.Compile.is_leaf

let compile_frame_words () =
  let p =
    { F.Ir.fns =
        [ F.Ir.fn "main" []
            (F.Ir.Let ("a", F.Ir.Int 1,
               F.Ir.Trywith (F.Ir.Var "a", [ ("E", "x", F.Ir.Var "x") ]))) ];
      main = "main" }
  in
  let compiled = F.Compile.compile p in
  let main = compiled.F.Compile.fns.(0) in
  (* 1 ra + 2 locals (a, handler slot) + 2 trap words *)
  Alcotest.(check int) "frame words" 5 main.F.Compile.frame_words;
  Alcotest.(check int) "max traps" 1 main.F.Compile.max_traps

let compile_errors () =
  let bad fns main =
    match F.Compile.compile { F.Ir.fns; main } with
    | _ -> false
    | exception F.Compile.Error _ -> true
  in
  Alcotest.(check bool) "unknown fn" true
    (bad [ F.Ir.fn "main" [] (F.Ir.Call ("nope", [])) ] "main");
  Alcotest.(check bool) "arity" true
    (bad
       [ F.Ir.fn "f" [ "x" ] (F.Ir.Var "x"); F.Ir.fn "main" [] (F.Ir.Call ("f", [])) ]
       "main");
  Alcotest.(check bool) "unbound var" true
    (bad [ F.Ir.fn "main" [] (F.Ir.Var "ghost") ] "main");
  Alcotest.(check bool) "missing main" true (bad [ F.Ir.fn "f" [] (F.Ir.Int 1) ] "zz");
  Alcotest.(check bool) "duplicate" true
    (bad [ F.Ir.fn "f" [] (F.Ir.Int 1); F.Ir.fn "f" [] (F.Ir.Int 2) ] "f")

let cfi_edits_shape () =
  let compiled = F.Compile.compile (F.Programs.exnraise ~iters:1) in
  let main = compiled.F.Compile.fns.(0) in
  (* first edit at entry; trap push/pop produce two more *)
  Alcotest.(check bool) "at least 3 edits" true (List.length main.F.Compile.cfi_edits >= 3);
  let entry_addr, _ = List.hd main.F.Compile.cfi_edits in
  Alcotest.(check int) "first edit at entry" main.F.Compile.entry entry_addr

(* ---------------- Machine: results across configs ---------------- *)

let programs_both_configs =
  [
    ("fib 15", F.Programs.fib ~n:15, 610);
    ("ack 2 3", F.Programs.ack ~m:2 ~n:3, 9);
    ("tak 12 8 4", F.Programs.tak ~x:12 ~y:8 ~z:4, 5);
    ("motzkin 10", F.Programs.motzkin ~n:10, 2188);
    ("sudan 2 2 1", F.Programs.sudan ~n:2 ~x:2 ~y:1 (), 27);
    ("exnval", F.Programs.exnval ~iters:500, 0);
    ("exnraise", F.Programs.exnraise ~iters:500, 0);
    ("extcall", F.Programs.extcall ~iters:500, 0);
    ("callback", F.Programs.callback ~iters:500, 0);
    ("meander", F.Programs.meander, 42);
  ]

let both_configs () =
  List.iter
    (fun (name, p, expected) ->
      List.iter
        (fun cfg ->
          match run_std cfg p with
          | F.Machine.Done v, _ ->
              Alcotest.(check int) (name ^ "/" ^ F.Config.name cfg) expected v
          | other, _ ->
              Alcotest.failf "%s/%s: %s" name (F.Config.name cfg)
                (match other with
                | F.Machine.Uncaught (l, _) -> "uncaught " ^ l
                | F.Machine.Fatal m -> m
                | _ -> "?"))
        [ F.Config.stock; F.Config.mc ])
    programs_both_configs

let effect_programs () =
  expect_done ~cfuns:F.Programs.standard_cfuns (F.Programs.effect_roundtrip ~iters:100) 0;
  expect_done (F.Programs.counter_effect ~upto:10) 55;
  expect_done (F.Programs.discontinue_cleanup) 42;
  expect_done ~cfuns:F.Programs.standard_cfuns F.Programs.effect_in_callback 7;
  expect_done (F.Programs.effect_depth ~depth:5 ~iters:5) 0;
  expect_done (F.Programs.deep_recursion ~depth:5000) 5000;
  expect_uncaught F.Programs.one_shot_violation "Invalid_argument";
  expect_uncaught F.Programs.unhandled_effect "Unhandled"

let stock_rejects_effects () =
  match run F.Config.stock (F.Programs.counter_effect ~upto:3) with
  | F.Machine.Fatal msg, _ ->
      Alcotest.(check bool) "mentions stock" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Fatal under stock"

let count_down depth =
  {
    F.Ir.fns =
      [
        F.Ir.fn "count" [ "n" ]
          (F.Ir.If
             ( F.Ir.Binop (F.Ir.Eq, F.Ir.Var "n", F.Ir.Int 0),
               F.Ir.Int 0,
               F.Ir.Binop
                 ( F.Ir.Add,
                   F.Ir.Int 1,
                   F.Ir.Call ("count", [ F.Ir.Binop (F.Ir.Sub, F.Ir.Var "n", F.Ir.Int 1) ])
                 ) ));
        F.Ir.fn "main" [] (F.Ir.Call ("count", [ F.Ir.Int depth ]));
      ];
    main = "main";
  }

let stock_stack_overflow () =
  let cfg = { F.Config.stock with F.Config.stock_stack_words = 256 } in
  match run cfg (count_down 1_000) with
  | F.Machine.Uncaught ("Stack_overflow", _), _ -> ()
  | F.Machine.Done _, _ -> Alcotest.fail "should overflow"
  | other, _ ->
      Alcotest.failf "unexpected %s"
        (match other with
        | F.Machine.Uncaught (l, _) -> l
        | F.Machine.Fatal m -> m
        | _ -> "?")

let mc_grows_instead () =
  (* the same deep recursion that overflows a 256-word stock stack just
     grows fibers under MC *)
  let counters =
    match run F.Config.mc (F.Programs.deep_recursion ~depth:3000) with
    | F.Machine.Done 3000, c -> c
    | _ -> Alcotest.fail "deep recursion failed"
  in
  Alcotest.(check bool) "grew" true
    (Retrofit_util.Counter.get counters "stack_grow" > 0)

(* invariance: results and key event counts independent of initial size *)
let growth_transparent () =
  let results =
    List.map
      (fun words ->
        let cfg = F.Config.with_initial_words words F.Config.mc in
        match run_std cfg (F.Programs.counter_effect ~upto:30) with
        | F.Machine.Done v, c ->
            (v, Retrofit_util.Counter.get c "perform",
             Retrofit_util.Counter.get c "resume")
        | _ -> Alcotest.fail "failed")
      [ 16; 64; 512 ]
  in
  match results with
  | first :: rest ->
      List.iter (fun r -> Alcotest.(check bool) "invariant" true (r = first)) rest
  | [] -> ()

let red_zone_transparent () =
  List.iter
    (fun rz ->
      let cfg = F.Config.mc_red_zone rz in
      match run_std cfg (F.Programs.fib ~n:12) with
      | F.Machine.Done v, _ -> Alcotest.(check int) "fib" 144 v
      | _ -> Alcotest.fail "failed")
    [ 0; 8; 16; 32; 64 ]

let cache_transparent () =
  List.iter
    (fun cache ->
      let cfg = F.Config.with_cache cache F.Config.mc in
      match run_std cfg (F.Programs.effect_roundtrip ~iters:200) with
      | F.Machine.Done 0, c ->
          if cache then
            Alcotest.(check bool) "hits" true
              (Retrofit_util.Counter.get c "stack_cache_hit" > 0)
          else
            Alcotest.(check int) "no hits" 0
              (Retrofit_util.Counter.get c "stack_cache_hit")
      | _ -> Alcotest.fail "failed")
    [ true; false ]

let check_elision () =
  (* under red zone 0 every executed call is checked; under a huge red
     zone leaf calls are not *)
  let checks rz =
    let cfg = F.Config.mc_red_zone rz in
    let _, c = run_std cfg (F.Programs.callback ~iters:100) in
    ( Retrofit_util.Counter.get c "overflow_check",
      Retrofit_util.Counter.get c "check_elided" )
  in
  let checked0, elided0 = checks 0 in
  let checked64, elided64 = checks 64 in
  Alcotest.(check int) "rz0 elides nothing" 0 elided0;
  Alcotest.(check bool) "rz64 elides leaves" true (elided64 > 0);
  Alcotest.(check bool) "rz64 checks fewer" true (checked64 < checked0)

let one_shot_enforced () =
  expect_uncaught F.Programs.one_shot_violation "Invalid_argument"

(* The handler discontinues the continuation (the body catches Cancel
   and returns), then resumes it. *)
let resume_after_discontinue =
  F.Ir.
    {
      fns =
        [
          fn "rd_body" [ "u" ]
            (Trywith (Perform ("Ask", Var "u"), [ ("Cancel", "x", Var "x") ]));
          fn "rd_ret" [ "v" ] (Var "v");
          fn "rd_eff" [ "x"; "k" ]
            (Seq (Discontinue (Var "k", "Cancel", Int 1), Continue (Var "k", Int 2)));
          fn "main" []
            (Handle
               {
                 body_fn = "rd_body";
                 body_args = [ Int 0 ];
                 retc = "rd_ret";
                 exncs = [];
                 effcs = [ ("Ask", "rd_eff") ];
               });
        ];
      main = "main";
    }

(* §3.1: a one-shot continuation is spent by its first resume or
   discontinue, and the machine drops its captured fibers then, without
   forgetting that it is spent.  The weak pointer shows the captured
   fiber becomes garbage once it has returned, rather than being kept
   by the dead continuation until the run ends. *)
let spent_continuation_released () =
  List.iter
    (fun (pname, pol) ->
      let cfg = F.Config.with_policy pol F.Config.mc in
      List.iter
        (fun p ->
          let a = F.Audit.audit () in
          match F.Machine.run ~audit:a cfg (F.Compile.compile p) with
          | F.Machine.Uncaught (l, _), _ ->
              Alcotest.(check string) pname "Invalid_argument" l;
              Alcotest.(check bool) (pname ^ " audit ok") true (F.Audit.audit_ok a)
          | _ -> Alcotest.failf "%s: expected Invalid_argument" pname)
        [ F.Programs.one_shot_violation; resume_after_discontinue ];
      let captured = Weak.create 1 and collected = ref false in
      let on_step m =
        match (F.Machine.live_continuations m, Weak.get captured 0) with
        | [ (_, [ f ]) ], None -> Weak.set captured 0 (Some f)
        | [], Some f when F.Machine.fiber_by_id m f.F.Fiber.id = None ->
            Gc.full_major ();
            collected := !collected || Weak.get captured 0 = None
        | _ -> ()
      in
      let outcome, _ =
        F.Machine.run ~on_step cfg (F.Compile.compile (F.Programs.counter_effect ~upto:1))
      in
      Alcotest.(check bool) (pname ^ " result") true (outcome = F.Machine.Done 1);
      Alcotest.(check bool) (pname ^ " captured fiber collected") true !collected)
    F.Stack_policy.all

let cross_fiber_resume () = expect_done F.Programs.cross_resume 42

(* §5.2: the implementation is one-shot by choice; with copying enabled
   the machine exhibits the multi-shot semantics of §4 exactly. *)
let multishot_matches_semantics () =
  expect_uncaught F.Programs.multishot_choice "Invalid_argument";
  expect_done ~cfg:(F.Config.with_multishot true F.Config.mc)
    F.Programs.multishot_choice 30;
  (* copying leaves the continuation usable and counts the copies *)
  let _, c =
    run (F.Config.with_multishot true F.Config.mc) F.Programs.multishot_choice
  in
  Alcotest.(check int) "two copies" 2 (Retrofit_util.Counter.get c "cont_copy");
  Alcotest.(check bool) "words copied" true
    (Retrofit_util.Counter.get c "words_copied" > 0)

(* one-shot programs behave identically whether or not copying is on *)
let multishot_transparent_for_one_shot () =
  List.iter
    (fun p ->
      let plain =
        match run ~cfuns:F.Programs.standard_cfuns F.Config.mc p with
        | F.Machine.Done v, _ -> v
        | _ -> Alcotest.fail "plain failed"
      in
      match
        run ~cfuns:F.Programs.standard_cfuns
          (F.Config.with_multishot true F.Config.mc)
          p
      with
      | F.Machine.Done v, _ -> Alcotest.(check int) "same result" plain v
      | _ -> Alcotest.fail "multishot failed")
    [
      F.Programs.effect_roundtrip ~iters:20;
      F.Programs.counter_effect ~upto:8;
      F.Programs.cross_resume;
    ]

let fibers_freed () =
  let _, c = run_std F.Config.mc (F.Programs.effect_roundtrip ~iters:50) in
  Alcotest.(check int) "allocs = frees"
    (Retrofit_util.Counter.get c "fiber_alloc")
    (Retrofit_util.Counter.get c "fiber_free")

let reperform_cost_linear () =
  let reperforms depth =
    let _, c = run F.Config.mc (F.Programs.effect_depth ~depth ~iters:1) in
    Retrofit_util.Counter.get c "reperform"
  in
  Alcotest.(check int) "depth 3" 3 (reperforms 3);
  Alcotest.(check int) "depth 7" 7 (reperforms 7)

(* ---------------- Address -> fiber index ---------------- *)

(* At every call the index must map the current fiber's own register
   addresses back to the current fiber, and unmapped addresses to None.
   The programs are chosen to churn the index through every mutation:
   grow (deep recursion), free + cached realloc (effect roundtrip) and
   multishot copy_fiber. *)
let addr_index_consistent () =
  let probe m =
    let f = F.Machine.current_fiber m in
    let check_addr a =
      if a <> 0 then
        match F.Machine.fiber_of_addr m a with
        | Some owner ->
            if owner.F.Fiber.id <> f.F.Fiber.id then
              Alcotest.failf "address %d resolved to fiber %d, not current %d" a
                owner.F.Fiber.id f.F.Fiber.id
        | None -> Alcotest.failf "address %d of the current fiber is unmapped" a
    in
    check_addr f.F.Fiber.regs.sp;
    check_addr f.F.Fiber.regs.cfa;
    check_addr (F.Segment.top f.F.Fiber.seg - 1);
    Alcotest.(check bool) "unmapped high address" true
      (F.Machine.fiber_of_addr m 1_000_000_000 = None);
    Alcotest.(check bool) "unmapped negative address" true
      (F.Machine.fiber_of_addr m (-5) = None)
  in
  List.iter
    (fun (name, cfg, p, expected) ->
      match
        F.Machine.run ~cfuns:F.Programs.standard_cfuns ~on_call:probe cfg
          (F.Compile.compile p)
      with
      | F.Machine.Done v, c ->
          Alcotest.(check int) name expected v;
          Alcotest.(check bool) "probes counted" true
            (Retrofit_util.Counter.get c "addr_index_probe" > 0)
      | _ -> Alcotest.failf "%s failed under address-index probing" name)
    [
      ("grow", F.Config.mc, F.Programs.deep_recursion ~depth:2000, 2000);
      ("free/realloc", F.Config.mc, F.Programs.effect_roundtrip ~iters:100, 0);
      ( "multishot copy",
        F.Config.with_multishot true F.Config.mc,
        F.Programs.multishot_choice,
        30 );
      ("cross resume", F.Config.mc, F.Programs.cross_resume, 42);
    ]

(* With many suspended fibers alive, the index still resolves each
   continuation's own saved sp — the backtrace-under-load access
   pattern of §6.3.4. *)
let addr_index_suspended () =
  let n = 50 in
  let list_pending =
    ( "list_pending",
      fun ctx _args ->
        let m = ctx.F.Machine.machine in
        let conts = F.Machine.live_continuations m in
        Alcotest.(check int) "suspended count" n (List.length conts);
        List.iter
          (fun (_, fibers) ->
            List.iter
              (fun (f : F.Fiber.t) ->
                match F.Machine.fiber_of_addr m f.F.Fiber.regs.sp with
                | Some owner ->
                    Alcotest.(check int) "owner" f.F.Fiber.id owner.F.Fiber.id
                | None -> Alcotest.fail "suspended fiber unmapped")
              fibers)
          conts;
        0 )
  in
  match
    F.Machine.run ~cfuns:[ list_pending ] F.Config.mc
      (F.Compile.compile (F.Programs.suspended_requests ~n))
  with
  | F.Machine.Done _, _ -> ()
  | _ -> Alcotest.fail "suspended_requests failed"

let shadow_backtrace_shape () =
  let compiled = F.Compile.compile F.Programs.meander in
  let seen = ref [] in
  let hook m =
    let f = F.Machine.current_fiber m in
    if f.F.Fiber.regs.fn >= 0 then begin
      let name = (F.Machine.compiled m).F.Compile.fns.(f.regs.fn).F.Compile.fn_name in
      if name = "c_to_ocaml" then seen := F.Machine.shadow_backtrace m
    end
  in
  (match F.Machine.run ~cfuns:F.Programs.standard_cfuns ~on_call:hook F.Config.mc compiled with
  | F.Machine.Done 42, _ -> ()
  | _ -> Alcotest.fail "meander failed");
  Alcotest.(check (list string)) "backtrace"
    [ "c_to_ocaml"; "<C>"; "omain"; "main"; "<main>" ]
    !seen

let unregistered_cfun_fatal () =
  match run F.Config.mc (F.Programs.extcall ~iters:1) with
  | F.Machine.Fatal msg, _ ->
      Alcotest.(check bool) "names the function" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected fatal"

let fuel_bound () =
  let compiled = F.Compile.compile (F.Programs.fib ~n:25) in
  match F.Machine.run ~fuel:1_000 F.Config.mc compiled with
  | F.Machine.Fatal msg, _ ->
      Alcotest.(check bool) "out of fuel" true
        (String.length msg >= 11 && String.sub msg 0 11 = "out of fuel")
  | _ -> Alcotest.fail "expected out of fuel"

(* The whole counter table, observation counters included: no counter
   may appear, disappear or change value. *)
let full_counter_tables () =
  let segcow_ms =
    F.Config.with_multishot true
      (F.Config.with_policy F.Stack_policy.segmented_cow F.Config.mc)
  in
  List.iter
    (fun (name, cfg, p, want) ->
      let _, c = run_std cfg p in
      Alcotest.(check (list (pair string int))) name want
        (Retrofit_util.Counter.to_list c))
    [
      ( "fib15/mc",
        F.Config.mc,
        F.Programs.fib ~n:15,
        [ ("call", 1974); ("instructions", 32672); ("malloc", 2); ("ops", 20716);
          ("overflow_check", 1974); ("ret", 1974); ("stack_cache_lookup", 2);
          ("stack_cache_miss", 2); ("stack_grow", 1); ("words_copied", 41) ] );
      ( "effect_roundtrip/mc",
        F.Config.mc,
        F.Programs.effect_roundtrip ~iters:100,
        [ ("call", 301); ("check_elided", 100); ("eff_tbl_probe", 100);
          ("fiber_alloc", 100); ("fiber_free", 100); ("fiber_return", 100);
          ("handle", 100); ("instructions", 7353); ("malloc", 2); ("ops", 1906);
          ("overflow_check", 201); ("perform", 100); ("resume", 100); ("ret", 301);
          ("stack_cache_hit", 99); ("stack_cache_lookup", 101);
          ("stack_cache_miss", 2); ("switch", 400) ] );
      ( "nqueens5/segcow-ms",
        segcow_ms,
        F.Programs.nqueens ~n:5,
        [ ("call", 5080); ("chunk_commit", 7); ("chunk_cow", 420);
          ("chunk_pool_hit", 6); ("cont_copy", 220); ("cont_share", 220);
          ("cow_words", 21820); ("eff_tbl_probe", 44); ("fiber_alloc", 1);
          ("fiber_free", 177); ("fiber_return", 177); ("handle", 1);
          ("instructions", 116684); ("malloc", 2); ("ops", 56948); ("perform", 44);
          ("resume", 220); ("ret", 5908); ("segment_check", 5080);
          ("stack_cache_lookup", 2); ("stack_cache_miss", 2); ("switch", 442) ] );
    ]

(* property: instruction counts are deterministic *)
let prop_deterministic =
  QCheck.Test.make ~name:"machine runs are deterministic" ~count:20
    (QCheck.make (QCheck.Gen.int_range 5 12))
    (fun n ->
      let p = F.Programs.fib ~n in
      let run1 = run F.Config.mc p and run2 = run F.Config.mc p in
      match (run1, run2) with
      | (F.Machine.Done a, c1), (F.Machine.Done b, c2) ->
          a = b
          && Retrofit_util.Counter.to_list c1 = Retrofit_util.Counter.to_list c2
      | _ -> false)

(* property: MC instructions >= stock instructions for check-bearing
   programs, and results agree *)
let prop_mc_overhead_nonnegative =
  QCheck.Test.make ~name:"MC cost >= stock cost, same result" ~count:15
    (QCheck.make (QCheck.Gen.int_range 5 12))
    (fun n ->
      let p = F.Programs.fib ~n in
      match (run F.Config.stock p, run F.Config.mc p) with
      | (F.Machine.Done a, c1), (F.Machine.Done b, c2) ->
          a = b
          && Retrofit_util.Counter.get c2 "instructions"
             >= Retrofit_util.Counter.get c1 "instructions"
      | _ -> false)

(* ---------------- Continuation slots ---------------- *)

(* Runs [p] and returns the outcome and the machine, for inspection
   after the run; [on_step] also runs after every step. *)
let run_keep ?audit ?(on_step = ignore) cfg p =
  let last = ref None in
  let on_step m =
    last := Some m;
    on_step m
  in
  let outcome, counters =
    F.Machine.run ~cfuns:F.Programs.standard_cfuns ~on_step ?audit cfg (F.Compile.compile p)
  in
  (outcome, counters, Option.get !last)

(* The first clause resumes the body, whose second perform reuses the
   spent slot; the second clause returns without resuming, so that slot
   stays live under the new generation.  The first clause then resumes
   its own, stale continuation value: without the generation it would
   name the second capture's live fibers and return 0. *)
let stale_after_reuse =
  F.Ir.
    {
      fns =
        [
          fn "gt_body" [ "u" ] (Seq (Perform ("E", Int 0), Perform ("E", Int 1)));
          fn "gt_ret" [ "v" ] (Var "v");
          fn "gt_eff" [ "x"; "k" ]
            (If
               ( Binop (Eq, Var "x", Int 1),
                 Int 7,
                 Seq
                   ( Continue (Var "k", Int 0),
                     Trywith
                       (Continue (Var "k", Int 0), [ ("Invalid_argument", "e", Int 42) ]) ) ));
          fn "main" []
            (Handle
               {
                 body_fn = "gt_body";
                 body_args = [ Int 0 ];
                 retc = "gt_ret";
                 exncs = [];
                 effcs = [ ("E", "gt_eff") ];
               });
        ];
      main = "main";
    }

let stale_resume_after_reuse () =
  List.iter
    (fun (pname, pol) ->
      let a = F.Audit.audit () in
      let outcome, _, m =
        run_keep ~audit:a (F.Config.with_policy pol F.Config.mc) stale_after_reuse
      in
      Alcotest.(check bool) (pname ^ " result 42") true (outcome = F.Machine.Done 42);
      Alcotest.(check int) (pname ^ " one slot, reused") 1 (F.Machine.cont_slots m);
      Alcotest.(check bool) (pname ^ " audit ok") true (F.Audit.audit_ok a))
    F.Stack_policy.all

let one_shot_slots_bounded () =
  let iters = 20_000 in
  let outcome, c, m = run_keep F.Config.mc (F.Programs.effect_roundtrip ~iters) in
  Alcotest.(check bool) "result" true (outcome = F.Machine.Done 0);
  Alcotest.(check int) "performs" iters (Retrofit_util.Counter.get c "perform");
  Alcotest.(check int) "slots" 1 (F.Machine.cont_slots m);
  Alcotest.(check int) "free" 1 (F.Machine.free_cont_slots m)

(* The body's first perform is unhandled, which spends its slot at
   once; the second is handled.  Multishot slots are never reused, not
   even that one. *)
let unhandled_then_handled =
  F.Ir.
    {
      fns =
        [
          fn "uh_body" [ "u" ]
            (Seq
               ( Trywith (Perform ("Nope", Int 0), [ ("Unhandled", "e", Int 0) ]),
                 Perform ("E", Int 5) ));
          fn "uh_ret" [ "v" ] (Var "v");
          fn "uh_eff" [ "x"; "k" ] (Continue (Var "k", Var "x"));
          fn "main" []
            (Handle
               {
                 body_fn = "uh_body";
                 body_args = [ Int 0 ];
                 retc = "uh_ret";
                 exncs = [];
                 effcs = [ ("E", "uh_eff") ];
               });
        ];
      main = "main";
    }

let multishot_slots_never_reused () =
  List.iter
    (fun (pname, pol) ->
      let cfg = F.Config.with_multishot true (F.Config.with_policy pol F.Config.mc) in
      List.iter
        (fun (what, p, result) ->
          let name = pname ^ " " ^ what in
          let outcome, c, m = run_keep cfg p in
          Alcotest.(check bool) (name ^ " result") true (outcome = F.Machine.Done result);
          Alcotest.(check int) (name ^ " one slot per perform")
            (Retrofit_util.Counter.get c "perform")
            (F.Machine.cont_slots m);
          Alcotest.(check int) (name ^ " free list empty") 0
            (F.Machine.free_cont_slots m))
        [ ("nqueens 5", F.Programs.nqueens ~n:5, 10); ("unhandled", unhandled_then_handled, 5) ])
    F.Stack_policy.all

(* Once the first continuation is spent, its free slot is set one short
   of the generation cap.  The next capture takes it to the cap: its
   value is the largest a continuation can have, and spending it retires
   the slot, so the captures after it use a second slot. *)
let slot_retired_at_generation_cap () =
  let cap = F.Machine.Testing.max_generation in
  let set = ref false and top_kid = ref 0 in
  let on_step m =
    if (not !set) && F.Machine.free_cont_slots m > 0 then begin
      let slot = Retrofit_util.Ivec.top (F.Machine.Testing.free_slots m) in
      F.Machine.Testing.set_slot_generation m slot (cap - 1);
      set := true
    end;
    List.iter (fun (kid, _) -> top_kid := max !top_kid kid) (F.Machine.live_continuations m)
  in
  let a = F.Audit.audit () in
  let outcome, c, m =
    run_keep ~audit:a ~on_step F.Config.mc (F.Programs.effect_roundtrip ~iters:10)
  in
  Alcotest.(check bool) "result" true (outcome = F.Machine.Done 0);
  Alcotest.(check int) "performs" 10 (Retrofit_util.Counter.get c "perform");
  Alcotest.(check int) "largest value" (cap lsl 32) !top_kid;
  Alcotest.(check bool) "below 2^53" true (!top_kid < 1 lsl 53);
  Alcotest.(check int) "slots" 2 (F.Machine.cont_slots m);
  Alcotest.(check int) "free" 1 (F.Machine.free_cont_slots m);
  Alcotest.(check bool) "audit ok" true (F.Audit.audit_ok a)

(* ---------------- Allocation ceilings ---------------- *)

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let c = Gc.minor_words () in
  c -. b -. (b -. a)

(* Words per unit of [per] between two sizes of one program, so the
   machine's set-up cancels out. *)
let marginal_words cfg program ~small ~large ~per =
  let measure n =
    let compiled = F.Compile.compile (program n) in
    let counters = ref None in
    let words =
      minor_words (fun () ->
          let _, c = F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled in
          counters := Some c)
    in
    (words, per n (Option.get !counters))
  in
  let w1, u1 = measure small and w2, u2 = measure large in
  (w2 -. w1) /. float_of_int (u2 - u1)

(* A call allocates one shadow-frame record (six fields and a header)
   and nothing else: no argument array, no boxed operand.  fib 17 and
   fib 20 grow the stack and the shadow Vec to the same sizes, so only
   the calls differ. *)
let fib_allocates_one_frame_per_call () =
  let words =
    marginal_words F.Config.mc
      (fun n -> F.Programs.fib ~n)
      ~small:17 ~large:20
      ~per:(fun _ c -> Retrofit_util.Counter.get c "call")
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per call <= 7" words) true (words <= 7.)

(* One iteration handles, performs, resumes and returns: three shadow
   frames (21 words), a handler fiber with its register record and
   stacks (52 words), its entries in the live-fiber table and the base
   index, and the stack cache's bookkeeping.  The ceiling is the
   measured figure. *)
let effect_roundtrip_ceiling () =
  let words =
    marginal_words F.Config.mc
      (fun iters -> F.Programs.effect_roundtrip ~iters)
      ~small:1_000 ~large:5_000
      ~per:(fun iters _ -> iters)
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per iteration <= 110" words) true
    (words <= 110.)

let alloc_suite =
  [
    test "fib allocates one shadow frame per call" fib_allocates_one_frame_per_call;
    test "effect_roundtrip allocation per iteration" effect_roundtrip_ceiling;
  ]

let suite =
  [
    test "segment basics" segment_basics;
    test "segment blit preserves top" segment_blit;
    test "stack cache roundtrip" cache_roundtrip;
    test "stack cache bound" cache_bound;
    test "stack cache reuses a segment without words" cache_dropped_words;
    test "stack cache pass-through at bucket 0" cache_passthrough;
    test "stack cache total-words cap" cache_total_words_cap;
    test "stack cache total-words exact" cache_total_words_exact;
    test "stack cache take returns zeroed segment" cache_take_zeroed;
    test "stack cache hit+miss=lookups" cache_hit_miss_lookup_identity;
    test "stack cache scoped stats independent" cache_scoped_stats_independent;
    test "stack cache reset stats" cache_reset_stats;
    test "compiler leaf analysis" compile_leafness;
    test "compiler frame words" compile_frame_words;
    test "compiler errors" compile_errors;
    test "cfi edits shape" cfi_edits_shape;
    test "programs on both configs" both_configs;
    test "effect programs" effect_programs;
    test "stock rejects effects" stock_rejects_effects;
    test "stock stack overflow" stock_stack_overflow;
    test "mc grows instead of overflowing" mc_grows_instead;
    test "growth is transparent" growth_transparent;
    test "red zone is transparent" red_zone_transparent;
    test "stack cache is transparent" cache_transparent;
    test "check elision by red zone" check_elision;
    test "one-shot enforced" one_shot_enforced;
    test "spent one-shot continuation is released" spent_continuation_released;
    test "cross-fiber resume" cross_fiber_resume;
    test "multishot copying matches the semantics" multishot_matches_semantics;
    test "multishot transparent for one-shot programs" multishot_transparent_for_one_shot;
    test "fibers freed" fibers_freed;
    test "reperform cost linear in depth" reperform_cost_linear;
    test "address index consistent across grow/free/copy" addr_index_consistent;
    test "address index under suspended load" addr_index_suspended;
    test "shadow backtrace shape (Fig 1d)" shadow_backtrace_shape;
    test "unregistered C function is fatal" unregistered_cfun_fatal;
    test "fuel bound" fuel_bound;
    test "full counter tables pinned" full_counter_tables;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_mc_overhead_nonnegative;
    test "stale resume after slot reuse raises" stale_resume_after_reuse;
    test "one-shot slots stay O(live)" one_shot_slots_bounded;
    test "multishot slots never reused" multishot_slots_never_reused;
    test "slot retired at the generation cap" slot_retired_at_generation_cap;
  ]
