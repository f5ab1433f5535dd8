(* Frozen cost-counter accounting for the fiber machine.

   These values were captured from the pre-optimisation implementation
   (the PR-1 seed) and pin the paper-model accounting of Tables 1-2:
   the hot-path work (indexed handler dispatch, the address->fiber
   interval index, O(1) continuation capture, the O(1) stack cache) is
   an asymptotic fix only and must not change a single counter.  Newer
   event counters (addr_index_probe, stack_cache_miss) are deliberately
   absent here: the check below compares exactly the frozen names, so
   adding observability never breaks it, while any drift in the frozen
   values does. *)

module F = Retrofit_fiber
module C = Retrofit_util.Counter

let test name f = Alcotest.test_case name `Quick f

(* [Programs.deep_recursion] without its handler, which the stock
   configuration rejects, raising from its deepest frame to a trap that
   [main] pushes first: the 20,000 frames grow the stock stack's backed
   window many times, and the raise reads a trap frame written before
   all of them. *)
let stock_recursion ~depth =
  let open F.Ir in
  {
    fns =
      [
        fn "dr_rec" [ "n" ]
          (If
             ( Binop (Eq, Var "n", Int 0),
               Raise ("E", Int 7),
               Binop (Add, Int 1, Call ("dr_rec", [ Binop (Sub, Var "n", Int 1) ])) ));
        fn "main" []
          (Trywith
             ( Call ("dr_rec", [ Int depth ]),
               [ ("E", "x", Binop (Add, Var "x", Int depth)) ] ));
      ];
    main = "main";
  }

let programs =
  [
    ("fib15", (F.Programs.fib ~n:15, false));
    ("ack23", (F.Programs.ack ~m:2 ~n:3, false));
    ("tak", (F.Programs.tak ~x:12 ~y:8 ~z:4, false));
    ("motzkin10", (F.Programs.motzkin ~n:10, false));
    ("sudan", (F.Programs.sudan ~iters:3 ~n:2 ~x:2 ~y:1 (), false));
    ("exnval", (F.Programs.exnval ~iters:500, false));
    ("exnraise", (F.Programs.exnraise ~iters:500, false));
    ("extcall", (F.Programs.extcall ~iters:500, true));
    ("callback", (F.Programs.callback ~iters:500, true));
    ("meander", (F.Programs.meander, true));
    ("effect_roundtrip", (F.Programs.effect_roundtrip ~iters:100, true));
    ("counter_effect", (F.Programs.counter_effect ~upto:10, false));
    ("effect_depth", (F.Programs.effect_depth ~depth:5 ~iters:5, false));
    ("deep_recursion", (F.Programs.deep_recursion ~depth:5000, false));
    ("discontinue", (F.Programs.discontinue_cleanup, false));
    ("cross_resume", (F.Programs.cross_resume, false));
    ("effect_in_callback", (F.Programs.effect_in_callback, true));
    ("multishot_choice", (F.Programs.multishot_choice, false));
    ("nqueens5", (F.Programs.nqueens ~n:5, false));
    ("stock_recursion20k", (stock_recursion ~depth:20_000, false));
  ]

(* The policy configs (seg/segcow-ms/res/res-ms) pin the alternative
   stack strategies the same way: any drift in their growth, check or
   cloning accounting shows up as a counter change here. *)
let config_of = function
  | "stock" -> F.Config.stock
  | "mc" -> F.Config.mc
  | "ms" -> F.Config.with_multishot true F.Config.mc
  | "seg" -> F.Config.with_policy F.Stack_policy.segmented F.Config.mc
  | "segcow-ms" ->
      F.Config.with_multishot true
        (F.Config.with_policy F.Stack_policy.segmented_cow F.Config.mc)
  | "res" -> F.Config.with_policy F.Stack_policy.large_reserve F.Config.mc
  | "res-ms" ->
      F.Config.with_multishot true
        (F.Config.with_policy F.Stack_policy.large_reserve F.Config.mc)
  | c -> Alcotest.failf "unknown config %s" c

let outcome_to_string = function
  | F.Machine.Done v -> Printf.sprintf "Done %d" v
  | F.Machine.Uncaught (l, v) -> Printf.sprintf "Uncaught %s %d" l v
  | F.Machine.Fatal m -> "Fatal " ^ m

(* (program/config, outcome, frozen counters) *)
let expected : (string * string * (string * int) list) list =
  [
    ( "fib15/stock",
      "Done 610",
      [ ("call", 1974); ("instructions", 28638); ("malloc", 1); ("ops", 20716); ("ret", 1974); ] );
    ( "fib15/mc",
      "Done 610",
      [ ("call", 1974); ("instructions", 32672); ("malloc", 2); ("ops", 20716); ("overflow_check", 1974); ("ret", 1974); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "fib15/ms",
      "Done 610",
      [ ("call", 1974); ("instructions", 32672); ("malloc", 2); ("ops", 20716); ("overflow_check", 1974); ("ret", 1974); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "ack23/stock",
      "Done 9",
      [ ("call", 45); ("instructions", 807); ("malloc", 1); ("ops", 601); ("ret", 45); ] );
    ( "ack23/mc",
      "Done 9",
      [ ("call", 45); ("instructions", 983); ("malloc", 2); ("ops", 601); ("overflow_check", 45); ("ret", 45); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "ack23/ms",
      "Done 9",
      [ ("call", 45); ("instructions", 983); ("malloc", 2); ("ops", 601); ("overflow_check", 45); ("ret", 45); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "tak/stock",
      "Done 5",
      [ ("call", 1734); ("instructions", 25592); ("malloc", 1); ("ops", 18630); ("ret", 1734); ] );
    ( "tak/mc",
      "Done 5",
      [ ("call", 1734); ("instructions", 29146); ("malloc", 2); ("ops", 18630); ("overflow_check", 1734); ("ret", 1734); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "tak/ms",
      "Done 5",
      [ ("call", 1734); ("instructions", 29146); ("malloc", 2); ("ops", 18630); ("overflow_check", 1734); ("ret", 1734); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "motzkin10/stock",
      "Done 2188",
      [ ("call", 7015); ("instructions", 110978); ("malloc", 1); ("ops", 82892); ("ret", 7015); ] );
    ( "motzkin10/mc",
      "Done 2188",
      [ ("call", 7015); ("instructions", 125221); ("malloc", 3); ("ops", 82892); ("overflow_check", 7015); ("ret", 7015); ("stack_grow", 2); ("words_copied", 123); ] );
    ( "motzkin10/ms",
      "Done 2188",
      [ ("call", 7015); ("instructions", 125221); ("malloc", 3); ("ops", 82892); ("overflow_check", 7015); ("ret", 7015); ("stack_grow", 2); ("words_copied", 123); ] );
    ( "sudan/stock",
      "Done 0",
      [ ("call", 28); ("instructions", 615); ("malloc", 1); ("ops", 477); ("ret", 28); ] );
    ( "sudan/mc",
      "Done 0",
      [ ("call", 28); ("instructions", 757); ("malloc", 2); ("ops", 477); ("overflow_check", 28); ("ret", 28); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "sudan/ms",
      "Done 0",
      [ ("call", 28); ("instructions", 757); ("malloc", 2); ("ops", 477); ("overflow_check", 28); ("ret", 28); ("stack_grow", 1); ("words_copied", 41); ] );
    ( "exnval/stock",
      "Done 0",
      [ ("call", 1); ("instructions", 7536); ("malloc", 1); ("ops", 6006); ("poptrap", 500); ("pushtrap", 500); ("ret", 1); ] );
    ( "exnval/mc",
      "Done 0",
      [ ("call", 1); ("check_elided", 1); ("instructions", 7536); ("malloc", 1); ("ops", 6006); ("poptrap", 500); ("pushtrap", 500); ("ret", 1); ] );
    ( "exnval/ms",
      "Done 0",
      [ ("call", 1); ("check_elided", 1); ("instructions", 7536); ("malloc", 1); ("ops", 6006); ("poptrap", 500); ("pushtrap", 500); ("ret", 1); ] );
    ( "exnraise/stock",
      "Done 0",
      [ ("call", 1); ("instructions", 11536); ("malloc", 1); ("ops", 9506); ("pushtrap", 500); ("raise", 500); ("ret", 1); ] );
    ( "exnraise/mc",
      "Done 0",
      [ ("call", 1); ("check_elided", 1); ("instructions", 11536); ("malloc", 1); ("ops", 9506); ("pushtrap", 500); ("raise", 500); ("ret", 1); ] );
    ( "exnraise/ms",
      "Done 0",
      [ ("call", 1); ("check_elided", 1); ("instructions", 11536); ("malloc", 1); ("ops", 9506); ("pushtrap", 500); ("raise", 500); ("ret", 1); ] );
    ( "extcall/stock",
      "Done 0",
      [ ("call", 1); ("extcall", 500); ("instructions", 12036); ("malloc", 1); ("ops", 5006); ("ret", 1); ] );
    ( "extcall/mc",
      "Done 0",
      [ ("call", 1); ("extcall", 500); ("instructions", 14538); ("malloc", 1); ("ops", 5006); ("overflow_check", 1); ("ret", 1); ] );
    ( "extcall/ms",
      "Done 0",
      [ ("call", 1); ("extcall", 500); ("instructions", 14538); ("malloc", 1); ("ops", 5006); ("overflow_check", 1); ("ret", 1); ] );
    ( "callback/stock",
      "Done 0",
      [ ("call", 501); ("callback", 500); ("extcall", 500); ("instructions", 19036); ("malloc", 1); ("ops", 6006); ("pushtrap", 500); ("ret", 501); ] );
    ( "callback/mc",
      "Done 0",
      [ ("call", 501); ("callback", 500); ("check_elided", 500); ("extcall", 500); ("instructions", 27538); ("malloc", 1); ("ops", 6006); ("overflow_check", 1); ("pushtrap", 500); ("ret", 501); ] );
    ( "callback/ms",
      "Done 0",
      [ ("call", 501); ("callback", 500); ("check_elided", 500); ("extcall", 500); ("instructions", 27538); ("malloc", 1); ("ops", 6006); ("overflow_check", 1); ("pushtrap", 500); ("ret", 501); ] );
    ( "meander/stock",
      "Done 42",
      [ ("call", 3); ("callback", 1); ("extcall", 1); ("instructions", 92); ("malloc", 1); ("ops", 23); ("pushtrap", 3); ("raise", 3); ("ret", 2); ] );
    ( "meander/mc",
      "Done 42",
      [ ("call", 3); ("callback", 1); ("check_elided", 1); ("extcall", 1); ("instructions", 113); ("malloc", 1); ("ops", 23); ("overflow_check", 2); ("pushtrap", 3); ("raise", 3); ("ret", 2); ] );
    ( "meander/ms",
      "Done 42",
      [ ("call", 3); ("callback", 1); ("check_elided", 1); ("extcall", 1); ("instructions", 113); ("malloc", 1); ("ops", 23); ("overflow_check", 2); ("pushtrap", 3); ("raise", 3); ("ret", 2); ] );
    ( "effect_roundtrip/mc",
      "Done 0",
      [ ("call", 301); ("check_elided", 100); ("fiber_alloc", 100); ("fiber_free", 100); ("fiber_return", 100); ("handle", 100); ("instructions", 7353); ("malloc", 2); ("ops", 1906); ("overflow_check", 201); ("perform", 100); ("resume", 100); ("ret", 301); ("stack_cache_hit", 99); ("switch", 400); ] );
    ( "effect_roundtrip/ms",
      "Done 0",
      [ ("call", 301); ("check_elided", 100); ("cont_copy", 100); ("fiber_alloc", 100); ("fiber_free", 100); ("fiber_return", 100); ("handle", 100); ("instructions", 13953); ("malloc", 102); ("ops", 1906); ("overflow_check", 201); ("perform", 100); ("resume", 100); ("ret", 301); ("stack_cache_hit", 99); ("switch", 400); ("words_copied", 4100); ] );
    ( "counter_effect/mc",
      "Done 55",
      [ ("call", 23); ("check_elided", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 714); ("malloc", 4); ("ops", 192); ("overflow_check", 22); ("perform", 10); ("resume", 10); ("ret", 23); ("stack_grow", 2); ("switch", 22); ("words_copied", 82); ] );
    ( "counter_effect/ms",
      "Done 55",
      [ ("call", 23); ("check_elided", 1); ("cont_copy", 10); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 1441); ("malloc", 13); ("ops", 192); ("overflow_check", 22); ("perform", 10); ("resume", 10); ("ret", 23); ("stack_cache_hit", 1); ("stack_grow", 2); ("switch", 22); ("words_copied", 574); ] );
    ( "effect_depth/mc",
      "Done 0",
      [ ("call", 71); ("check_elided", 30); ("fiber_alloc", 30); ("fiber_free", 30); ("fiber_return", 30); ("handle", 30); ("instructions", 1823); ("malloc", 7); ("ops", 426); ("overflow_check", 41); ("perform", 5); ("reperform", 25); ("resume", 5); ("ret", 71); ("stack_cache_hit", 24); ("switch", 70); ] );
    ( "effect_depth/ms",
      "Done 0",
      [ ("call", 71); ("check_elided", 30); ("cont_copy", 5); ("fiber_alloc", 30); ("fiber_free", 30); ("fiber_return", 30); ("handle", 30); ("instructions", 3803); ("malloc", 37); ("ops", 426); ("overflow_check", 41); ("perform", 5); ("reperform", 25); ("resume", 5); ("ret", 71); ("stack_cache_hit", 24); ("switch", 70); ("words_copied", 1230); ] );
    ( "deep_recursion/mc",
      "Done 5000",
      [ ("call", 5003); ("check_elided", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 95907); ("malloc", 10); ("ops", 55012); ("overflow_check", 5002); ("ret", 5003); ("stack_grow", 8); ("switch", 2); ("words_copied", 10455); ] );
    ( "deep_recursion/ms",
      "Done 5000",
      [ ("call", 5003); ("check_elided", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 95907); ("malloc", 10); ("ops", 55012); ("overflow_check", 5002); ("ret", 5003); ("stack_grow", 8); ("switch", 2); ("words_copied", 10455); ] );
    ( "discontinue/mc",
      "Done 42",
      [ ("call", 4); ("check_elided", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 129); ("malloc", 2); ("ops", 23); ("overflow_check", 3); ("perform", 1); ("pushtrap", 1); ("raise", 1); ("resume", 1); ("ret", 4); ("switch", 4); ] );
    ( "discontinue/ms",
      "Done 42",
      [ ("call", 4); ("check_elided", 1); ("cont_copy", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 195); ("malloc", 3); ("ops", 23); ("overflow_check", 3); ("perform", 1); ("pushtrap", 1); ("raise", 1); ("resume", 1); ("ret", 4); ("switch", 4); ("words_copied", 41); ] );
    ( "cross_resume/mc",
      "Done 42",
      [ ("call", 6); ("check_elided", 2); ("fiber_alloc", 2); ("fiber_free", 2); ("fiber_return", 2); ("handle", 2); ("instructions", 168); ("malloc", 3); ("ops", 19); ("overflow_check", 4); ("perform", 1); ("resume", 1); ("ret", 6); ("switch", 6); ] );
    ( "cross_resume/ms",
      "Done 42",
      [ ("call", 6); ("check_elided", 2); ("cont_copy", 1); ("fiber_alloc", 2); ("fiber_free", 2); ("fiber_return", 2); ("handle", 2); ("instructions", 234); ("malloc", 4); ("ops", 19); ("overflow_check", 4); ("perform", 1); ("resume", 1); ("ret", 6); ("switch", 6); ("words_copied", 41); ] );
    ( "effect_in_callback/mc",
      "Done 7",
      [ ("call", 3); ("callback", 1); ("extcall", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("handle", 1); ("instructions", 137); ("malloc", 2); ("ops", 16); ("overflow_check", 3); ("perform", 1); ("pushtrap", 2); ("raise", 2); ("ret", 1); ("switch", 2); ] );
    ( "effect_in_callback/ms",
      "Done 7",
      [ ("call", 3); ("callback", 1); ("extcall", 1); ("fiber_alloc", 1); ("fiber_free", 1); ("handle", 1); ("instructions", 137); ("malloc", 2); ("ops", 16); ("overflow_check", 3); ("perform", 1); ("pushtrap", 2); ("raise", 2); ("ret", 1); ("switch", 2); ] );
    ( "multishot_choice/ms",
      "Done 30",
      [ ("call", 5); ("check_elided", 2); ("cont_copy", 2); ("fiber_alloc", 1); ("fiber_free", 2); ("fiber_return", 2); ("handle", 1); ("instructions", 268); ("malloc", 3); ("ops", 22); ("overflow_check", 3); ("perform", 1); ("resume", 2); ("ret", 6); ("stack_cache_hit", 1); ("switch", 6); ("words_copied", 82); ] );
    ( "deep_recursion/seg",
      "Done 5000",
      [ ("call", 5003); ("chunk_commit", 157); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 86978); ("malloc", 2); ("ops", 55012); ("ret", 5003); ("segment_check", 5003); ("switch", 2); ] );
    ( "deep_recursion/res",
      "Done 5000",
      [ ("call", 5003); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 76528); ("malloc", 2); ("ops", 55012); ("page_commit", 40); ("page_fault", 40); ("ret", 5003); ("switch", 2); ] );
    ( "effect_roundtrip/seg",
      "Done 0",
      [ ("call", 301); ("fiber_alloc", 100); ("fiber_free", 100); ("fiber_return", 100); ("handle", 100); ("instructions", 7553); ("malloc", 2); ("ops", 1906); ("perform", 100); ("resume", 100); ("ret", 301); ("segment_check", 301); ("stack_cache_hit", 99); ("switch", 400); ] );
    ( "effect_roundtrip/res",
      "Done 0",
      [ ("call", 301); ("fiber_alloc", 100); ("fiber_free", 100); ("fiber_return", 100); ("handle", 100); ("instructions", 6951); ("malloc", 2); ("ops", 1906); ("perform", 100); ("resume", 100); ("ret", 301); ("stack_cache_hit", 99); ("switch", 400); ] );
    ( "counter_effect/seg",
      "Done 55",
      [ ("call", 23); ("chunk_commit", 2); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 568); ("malloc", 2); ("ops", 192); ("perform", 10); ("resume", 10); ("ret", 23); ("segment_check", 23); ("switch", 22); ] );
    ( "counter_effect/res",
      "Done 55",
      [ ("call", 23); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 570); ("malloc", 2); ("ops", 192); ("page_commit", 2); ("page_fault", 2); ("perform", 10); ("resume", 10); ("ret", 23); ("switch", 22); ] );
    ( "counter_effect/segcow-ms",
      "Done 55",
      [ ("call", 23); ("chunk_commit", 2); ("chunk_cow", 10); ("cont_copy", 10); ("cont_share", 10); ("cow_words", 410); ("fiber_alloc", 1); ("fiber_free", 1); ("fiber_return", 1); ("handle", 1); ("instructions", 1028); ("malloc", 2); ("ops", 192); ("perform", 10); ("resume", 10); ("ret", 23); ("segment_check", 23); ("switch", 22); ] );
    ( "multishot_choice/segcow-ms",
      "Done 30",
      [ ("call", 5); ("chunk_cow", 2); ("cont_copy", 2); ("cont_share", 2); ("cow_words", 82); ("fiber_alloc", 1); ("fiber_free", 2); ("fiber_return", 2); ("handle", 1); ("instructions", 247); ("malloc", 2); ("ops", 22); ("perform", 1); ("resume", 2); ("ret", 6); ("segment_check", 5); ("switch", 6); ] );
    ( "multishot_choice/res-ms",
      "Done 30",
      [ ("call", 5); ("cont_copy", 2); ("fiber_alloc", 1); ("fiber_free", 2); ("fiber_return", 2); ("handle", 1); ("instructions", 262); ("malloc", 3); ("ops", 22); ("perform", 1); ("resume", 2); ("ret", 6); ("stack_cache_hit", 1); ("switch", 6); ("words_copied", 82); ] );
    ( "nqueens5/segcow-ms",
      "Done 10",
      [ ("call", 5080); ("chunk_commit", 7); ("chunk_cow", 420); ("chunk_pool_hit", 6); ("cont_copy", 220); ("cont_share", 220); ("cow_words", 21820); ("fiber_alloc", 1); ("fiber_free", 177); ("fiber_return", 177); ("handle", 1); ("instructions", 116684); ("malloc", 2); ("ops", 56948); ("perform", 44); ("resume", 220); ("ret", 5908); ("segment_check", 5080); ("switch", 442); ] );
    ( "stock_recursion20k/stock",
      "Done 20007",
      [ ("call", 20002); ("instructions", 220056); ("malloc", 1); ("ops", 180020); ("pushtrap", 1); ("raise", 1); ("ret", 1); ] );
  ]

let check_entry (key, want_outcome, frozen) =
  let pname, cname =
    match String.split_on_char '/' key with
    | [ p; c ] -> (p, c)
    | _ -> Alcotest.failf "bad key %s" key
  in
  let p, needs_cfuns = List.assoc pname programs in
  let cfuns = if needs_cfuns then F.Programs.standard_cfuns else [] in
  let outcome, c = F.Machine.run ~cfuns (config_of cname) (F.Compile.compile p) in
  Alcotest.(check string) (key ^ " outcome") want_outcome (outcome_to_string outcome);
  List.iter
    (fun (counter, v) ->
      Alcotest.(check int) (Printf.sprintf "%s %s" key counter) v (C.get c counter))
    frozen

let frozen_counters () = List.iter check_entry expected

let suite = [ test "paper-model counters match the seed (Tables 1-2)" frozen_counters ]
