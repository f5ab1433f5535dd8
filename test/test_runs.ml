(* Straight-line runs: without a hook or an auditor the machine charges
   each run of simple instructions at its entry; with an [on_step] hook
   it steps op by op.  Everything a run reports must be the same either
   way: outcome, every counter, the point where fuel runs out and the
   event stream, whose timestamps are the running [instructions]. *)

module F = Retrofit_fiber
module C = Retrofit_conformance
module Counter = Retrofit_util.Counter
module Trace = Retrofit_trace.Trace
module Export = Retrofit_trace.Export

let test name f = Alcotest.test_case name `Quick f

let outcome_to_string = function
  | F.Machine.Done v -> Printf.sprintf "Done %d" v
  | F.Machine.Uncaught (l, p) -> Printf.sprintf "Uncaught %s %d" l p
  | F.Machine.Fatal m -> "Fatal " ^ m

(* One run by runs (no hook) and one op by op ([~on_step:ignore]). *)
let both ?fuel ~cfuns config compiled =
  let run ?on_step () =
    let o, c = F.Machine.run ?fuel ~cfuns ?on_step config compiled in
    (outcome_to_string o, Counter.to_list c)
  in
  (run (), run ~on_step:ignore ())

let agree ?fuel ~cfuns name config compiled =
  let (o1, c1), (o2, c2) = both ?fuel ~cfuns config compiled in
  let where =
    Printf.sprintf "%s under %s%s" name (F.Config.name config)
      (match fuel with Some k -> Printf.sprintf ", fuel %d" k | None -> "")
  in
  Alcotest.(check string) (where ^ ": outcome") o2 o1;
  Alcotest.(check (list (pair string int))) (where ^ ": counters") c2 c1

let configs =
  let mc = F.Config.mc in
  (F.Config.stock :: mc :: List.map (fun p -> F.Config.with_policy p mc) C.Fuzz.default_policies)
  @ [ F.Config.with_multishot true mc ]

(* [Division_by_zero] caught inside a loop: [f n] sums
   [100 / (n mod 3) + 7 mod (n mod 2)], or the handler's payload (the
   dividend) where a divisor is 0.  Each trapping op is followed by more
   simple ones, so a run that went on past one would show. *)
let divzero_loop =
  let open F.Ir in
  {
    fns =
      [
        fn "f" [ "n" ]
          (If
             ( Binop (Eq, Var "n", Int 0),
               Int 0,
               Binop
                 ( Add,
                   Trywith
                     ( Binop
                         ( Add,
                           Binop (Div, Int 100, Binop (Mod, Var "n", Int 3)),
                           Binop (Mod, Int 7, Binop (Mod, Var "n", Int 2)) ),
                       [ ("Division_by_zero", "x", Var "x") ] ),
                   Call ("f", [ Binop (Sub, Var "n", Int 1) ]) ) ));
        fn "main" [] (Call ("f", [ Int 12 ]));
      ];
    main = "main";
  }

let fiber_programs =
  F.Programs.
    [
      ("fib", fib ~n:12);
      ("tak", tak ~x:9 ~y:6 ~z:3);
      ("ack", ack ~m:2 ~n:3);
      ("motzkin", motzkin ~n:7);
      ("sudan", sudan ~iters:3 ~n:1 ~x:3 ~y:20 ());
      ("exnval", exnval ~iters:50);
      ("exnraise", exnraise ~iters:50);
      ("extcall", extcall ~iters:50);
      ("callback", callback ~iters:50);
      ("meander", meander);
      ("effect_roundtrip", effect_roundtrip ~iters:50);
      ("effect_depth", effect_depth ~depth:8 ~iters:10);
      ("counter_effect", counter_effect ~upto:50);
      ("one_shot_violation", one_shot_violation);
      ("unhandled_effect", unhandled_effect);
      ("discontinue_cleanup", discontinue_cleanup);
      ("deep_recursion", deep_recursion ~depth:500);
      ("effect_in_callback", effect_in_callback);
      ("cross_resume", cross_resume);
      ("multishot_choice", multishot_choice);
      ("nqueens", nqueens ~n:4);
      ("suspended_requests", suspended_requests ~n:20);
      ("divzero_loop", divzero_loop);
    ]

(* Every [Programs] program, the conformance corpus and 200 seed-1
   generated programs, under every configuration. *)
let loops_agree_everywhere () =
  List.iter
    (fun (name, p) ->
      let compiled = F.Compile.compile p in
      List.iter (fun cfg -> agree ~cfuns:F.Programs.standard_cfuns name cfg compiled) configs)
    fiber_programs;
  let conformance name p =
    let compiled = F.Compile.compile p in
    let cfuns = C.Fiber_backend.cfuns compiled in
    List.iter (fun cfg -> agree ~fuel:20_000_000 ~cfuns name cfg compiled) configs
  in
  List.iter (fun (e : C.Corpus.entry) -> conformance e.name e.program) C.Corpus.entries;
  for i = 0 to 199 do
    let s = C.Fuzz.prog_seed ~seed:1 i in
    conformance (Printf.sprintf "seed-1 program #%d" i) (C.Gen.program_of_seed s)
  done

(* Every fuel from 0 to the op count of the whole run: "out of fuel"
   lands at the same op, with the same counters, on both loops. *)
let fuel_sweep () =
  List.iter
    (fun (name, p, cfg) ->
      let compiled = F.Compile.compile p in
      let _, c = F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled in
      let ops = Counter.value c Counter.Ops in
      for k = 0 to ops do
        agree ~fuel:k ~cfuns:F.Programs.standard_cfuns name cfg compiled
      done)
    [
      ("fib 5", F.Programs.fib ~n:5, F.Config.stock);
      ("fib 5", F.Programs.fib ~n:5, F.Config.mc);
      ("exnraise", F.Programs.exnraise ~iters:5, F.Config.mc);
      ("divzero_loop", divzero_loop, F.Config.mc);
    ]

(* The eventlog of one run, as text: every event with its timestamp. *)
let event_text ?on_step compiled =
  let _, ring =
    Trace.scoped ~capacity:100_000 (fun () ->
        F.Machine.run ~cfuns:F.Programs.standard_cfuns ?on_step F.Config.mc compiled)
  in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ring);
  Export.of_trace_text ring

let traces_identical () =
  List.iter
    (fun (name, p) ->
      let compiled = F.Compile.compile p in
      let by_runs = event_text compiled and by_ops = event_text ~on_step:ignore compiled in
      Alcotest.(check bool) (name ^ ": events traced") true (String.length by_runs > 0);
      Alcotest.(check string) (name ^ ": event stream") by_ops by_runs)
    [
      ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:20);
      ("exnraise", F.Programs.exnraise ~iters:20);
      ("divzero_loop", divzero_loop);
    ]

let suite =
  [
    test "run loop and per-op loop agree" loops_agree_everywhere;
    test "fuel runs out at the same op" fuel_sweep;
    test "event streams byte-identical" traces_identical;
  ]
