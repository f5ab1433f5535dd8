module F = Retrofit_fiber
module D = Retrofit_dwarf
module Counter = Retrofit_util.Counter

let run_counters cfg p =
  let compiled = F.Compile.compile p in
  match F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled with
  | F.Machine.Fatal msg, _ -> failwith ("ablation program failed: " ^ msg)
  | _, counters -> counters

let stack_cache ?(quick = false) () =
  let iters = if quick then 1_000 else 50_000 in
  let p = F.Programs.effect_roundtrip ~iters in
  let with_cache = run_counters F.Config.mc p in
  let without = run_counters (F.Config.with_cache false F.Config.mc) p in
  "Stack cache (fiber churn: one fiber per iteration, " ^ string_of_int iters
  ^ " iterations):\n"
  ^ Retrofit_util.Table.render
      ~align:[ Retrofit_util.Table.Left; Retrofit_util.Table.Right; Retrofit_util.Table.Right ]
      ~header:[ "counter"; "cache on"; "cache off" ]
      (List.map
         (fun name ->
           [
             Counter.to_string name;
             string_of_int (Counter.value with_cache name);
             string_of_int (Counter.value without name);
           ])
         Counter.[ Malloc; Stack_cache_hit; Fiber_alloc; Instructions ])

(* A program with leaf functions in each frame class (small <= 16,
   mid <= 32, big > 32 words), so the sweep shows the elision rule
   actually firing: checks disappear class by class as the red zone
   widens, while the non-leaf driver stays checked. *)
let red_zone_program ~iters =
  let rec lets n body =
    if n = 0 then body
    else F.Ir.Let ("v" ^ string_of_int n, F.Ir.Int n, lets (n - 1) body)
  in
  {
    F.Ir.fns =
      [
        F.Ir.fn "leaf_small" [ "x" ] (F.Ir.Binop (F.Ir.Add, F.Ir.Var "x", F.Ir.Int 1));
        F.Ir.fn "leaf_mid" [ "x" ] (lets 22 (F.Ir.Var "x"));
        F.Ir.fn "leaf_big" [ "x" ] (lets 44 (F.Ir.Var "x"));
        F.Ir.fn "main" []
          (F.Ir.Repeat
             ( F.Ir.Int iters,
               F.Ir.Binop
                 ( F.Ir.Add,
                   F.Ir.Call ("leaf_small", [ F.Ir.Int 1 ]),
                   F.Ir.Binop
                     ( F.Ir.Add,
                       F.Ir.Call ("leaf_mid", [ F.Ir.Int 2 ]),
                       F.Ir.Call ("leaf_big", [ F.Ir.Int 3 ]) ) ) ));
      ];
    main = "main";
  }

let red_zone_sweep ?(quick = false) () =
  let p = red_zone_program ~iters:(if quick then 200 else 5_000) in
  let compiled = F.Compile.compile p in
  let rows =
    List.map
      (fun rz ->
        let cfg = F.Config.mc_red_zone rz in
        let counters = run_counters cfg p in
        [
          string_of_int rz;
          string_of_int (Counter.value counters Counter.Overflow_check);
          string_of_int (Counter.value counters Counter.Check_elided);
          string_of_int (F.Otss.checked_functions cfg compiled);
          string_of_int (F.Otss.total cfg compiled);
        ])
      [ 0; 8; 16; 32; 64 ]
  in
  "Red zone size (one leaf function per frame class + a non-leaf driver):\n"
  ^ Retrofit_util.Table.render
      ~align:
        [
          Retrofit_util.Table.Right; Retrofit_util.Table.Right; Retrofit_util.Table.Right;
          Retrofit_util.Table.Right; Retrofit_util.Table.Right;
        ]
      ~header:[ "red zone"; "checks run"; "checks elided"; "fns checked"; "otss (B)" ]
      rows

let initial_size_sweep ?(quick = false) () =
  let depth = if quick then 2_000 else 20_000 in
  let p = F.Programs.deep_recursion ~depth in
  let rows =
    List.map
      (fun words ->
        let cfg = F.Config.with_initial_words words F.Config.mc in
        let counters = run_counters cfg p in
        [
          string_of_int words;
          string_of_int (Counter.value counters Counter.Stack_grow);
          string_of_int (Counter.value counters Counter.Words_copied);
          string_of_int (Counter.value counters Counter.Instructions);
        ])
      [ 16; 64; 256; 1024 ]
  in
  "Initial fiber size (deep recursion inside a handler, depth "
  ^ string_of_int depth ^ "):\n"
  ^ Retrofit_util.Table.render
      ~align:
        [
          Retrofit_util.Table.Right; Retrofit_util.Table.Right; Retrofit_util.Table.Right;
          Retrofit_util.Table.Right;
        ]
      ~header:[ "initial words"; "growths"; "words copied"; "instructions" ]
      rows

(* §5.1: Multicore keeps stock's linked trap frames for exceptions
   instead of implementing them as effects.  Compare the instruction
   cost of a raise/handle loop against the same control transfer done
   with an effect handler and an abandoned continuation. *)
let exceptions_vs_effects ?(quick = false) () =
  let iters = if quick then 1_000 else 20_000 in
  let exn_prog = F.Programs.exnraise ~iters in
  let eff_prog =
    let open F.Ir in
    {
      fns =
        [
          fn "body" [ "u" ] (Perform ("E", Int 1));
          fn "ret" [ "v" ] (Var "v");
          (* handle the "exception" by not resuming: the fiber is
             abandoned, exactly what exceptions-as-effects would do *)
          fn "eff" [ "x"; "k" ] (Var "x");
          fn "main" []
            (Repeat
               ( Int iters,
                 Handle
                   {
                     body_fn = "body";
                     body_args = [ Int 0 ];
                     retc = "ret";
                     exncs = [];
                     effcs = [ ("E", "eff") ];
                   } ));
        ];
      main = "main";
    }
  in
  let exn_c = run_counters F.Config.mc exn_prog in
  let eff_c = run_counters F.Config.mc eff_prog in
  let per name c = float_of_int (Counter.value c Counter.Instructions) /. float_of_int iters |> fun v -> (name, Printf.sprintf "%.1f instr/iter" v) in
  "Exceptions as linked trap frames vs as effects (why §5.1 keeps stock\n\
   exceptions):\n"
  ^ Retrofit_util.Table.render_kv
      [ per "raise through a trap frame" exn_c; per "perform + abandoned fiber" eff_c ]
  ^ "(note: the effect encoding also leaks the unreclaimed fiber unless a\n\
     finaliser or explicit discontinue cleans it up)\n"

(* §5.2: "copying fibers is unnecessary and inefficient" for one-shot
   concurrency.  Quantify: the same effect-roundtrip workload under the
   one-shot discipline versus semantics-faithful copying resumption. *)
let one_shot_vs_multishot ?(quick = false) () =
  let iters = if quick then 500 else 20_000 in
  let p = F.Programs.effect_roundtrip ~iters in
  let one_shot = run_counters F.Config.mc p in
  let multi = run_counters (F.Config.with_multishot true F.Config.mc) p in
  let row name = [
    Counter.to_string name;
    string_of_int (Counter.value one_shot name);
    string_of_int (Counter.value multi name);
  ] in
  "One-shot vs multi-shot (copying) resumption on the effect roundtrip\n\
   (the §5.2 trade-off: one-shot avoids copying entirely):\n"
  ^ Retrofit_util.Table.render
      ~align:[ Retrofit_util.Table.Left; Retrofit_util.Table.Right; Retrofit_util.Table.Right ]
      ~header:[ "counter"; "one-shot"; "multi-shot" ]
      (List.map row Counter.[ Instructions; Words_copied; Cont_copy; Malloc; Fiber_alloc ])

let unwind_strategy ?(quick = false) () =
  let p = if quick then F.Programs.fib ~n:10 else F.Programs.fib ~n:14 in
  let compiled = F.Compile.compile p in
  let table = D.Table.build compiled in
  let interp_ops = ref 0 in
  let probes = ref 0 in
  let hook m =
    incr probes;
    ignore (D.Unwind.backtrace ~interp_ops table m)
  in
  (match F.Machine.run ~cfuns:F.Programs.standard_cfuns ~on_call:hook F.Config.mc compiled with
  | F.Machine.Fatal msg, _ -> failwith msg
  | _ -> ());
  let pre = D.Interp.Precompiled.of_table table in
  "Interpreted vs precompiled unwind tables (Bastian et al. report up to\n\
   25x faster unwinding from precompilation, at a memory cost):\n"
  ^ Retrofit_util.Table.render_kv
      [
        ("unwind probes", string_of_int !probes);
        ("CFI bytecode ops interpreted", string_of_int !interp_ops);
        ( "bytecode table size",
          string_of_int (D.Table.total_bytecode_words table) ^ " words" );
        ( "precompiled table size",
          string_of_int (D.Interp.Precompiled.size_words pre) ^ " words" );
        ( "precompiled lookups per probe frame",
          "1 (O(1) array read instead of bytecode interpretation)" );
      ]

let report ?quick () =
  String.concat "\n"
    [
      stack_cache ?quick ();
      red_zone_sweep ?quick ();
      initial_size_sweep ?quick ();
      exceptions_vs_effects ?quick ();
      one_shot_vs_multishot ?quick ();
      unwind_strategy ?quick ();
    ]
