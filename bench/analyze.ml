(* Analyzer overhead benchmark: wall-clock of the full static pipeline
   (index, linearity, effect dataflow, must pass, red-zone audit)
   against actually executing the same program on the fiber machine.

   The lint is meant to run alongside the conformance campaign on every
   generated program, so the budget is relative: with --check the exit
   code enforces the documented bound that total analysis time stays
   under 20% of total execution time across the program set.  Both
   baselines are reported — the bare fiber-machine run, and the full
   differential-oracle run (three backends plus the per-step auditor)
   the campaign already pays per program, which is what the analyzer
   actually rides along with; the bound is enforced against the
   latter.

   Every run also prints the analysis split by phase, in us a program:
   the index ([Cfg.build]), [Linearity], [Resolve], [Effects],
   [Costbound], the must pass (the rest of [Static.analyze]) and the
   red-zone audit.  Each phase is timed alone, over inputs built once,
   in a second pass that the bound does not read. *)

module C = Retrofit_conformance
module A = Retrofit_analysis
module H = Retrofit_harness

let () =
  let seed = ref 1 in
  let count = ref 300 in
  let check = ref false in
  let speclist =
    [
      ("--seed", Arg.Set_int seed, "INT generator seed (default 1)");
      ( "--count",
        Arg.Set_int count,
        "INT number of generated programs (default 300)" );
      ( "--check",
        Arg.Set check,
        " fail unless analysis time < 20% of execution time" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "analyze [options]";
  let programs =
    List.map (fun (e : C.Corpus.entry) -> e.C.Corpus.program) C.Corpus.entries
    @ List.init !count (fun i ->
          C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:!seed i))
  in
  (* the container's wall clock is noisy at the tens-of-microseconds
     scale, so each side is measured [reps] times per program and the
     per-program minimum kept — the minimum is the least-disturbed
     observation of a deterministic computation *)
  let reps = 3 in
  let best f =
    let t = ref Int64.max_int in
    for _ = 1 to reps do
      let x, ti = H.Clock.elapsed_ns f in
      ignore (Sys.opaque_identity x);
      if ti < !t then t := ti
    done;
    !t
  in
  let analysis_ns = ref 0L and fiber_ns = ref 0L and oracle_ns = ref 0L in
  List.iter
    (fun p ->
      (* the campaign compiles every program anyway to run it on the
         fiber machine, so the compile is charged to the execution side
         and the analyzer is measured over the shared compiled form *)
      let compiled = Retrofit_fiber.Compile.compile p in
      let ta = best (fun () -> C.Static.analyze ~compiled p) in
      let tl = best (fun () -> A.Redzone.audit ~red_zone:16 compiled) in
      let te = best (fun () -> C.Fiber_backend.run ~audit:false p) in
      let tor = best (fun () -> C.Oracle.run ~audit:true p) in
      analysis_ns := Int64.add !analysis_ns (Int64.add ta tl);
      fiber_ns := Int64.add !fiber_ns te;
      oracle_ns := Int64.add !oracle_ns tor)
    programs;
  let phases =
    [|
      "index"; "Linearity"; "Resolve"; "Effects"; "Costbound"; "must pass";
      "Redzone";
    |]
  in
  let phase_ns = Array.make (Array.length phases) 0L in
  let charge i t = phase_ns.(i) <- Int64.add phase_ns.(i) t in
  let cfun_model = C.Static.cfun_model in
  List.iter
    (fun p ->
      let compiled = Retrofit_fiber.Compile.compile p in
      let cfg = A.Cfg.build ~cfun_model compiled p in
      let lin = A.Linearity.analyze cfg in
      let res = A.Resolve.analyze cfg lin in
      let times =
        [|
          best (fun () -> A.Cfg.build ~cfun_model compiled p);
          best (fun () -> A.Linearity.analyze cfg);
          best (fun () -> A.Resolve.analyze cfg lin);
          best (fun () -> A.Effects.analyze ~multishot:false cfg lin res);
          best (fun () ->
              A.Costbound.analyze ~cfun_model:cfg.A.Cfg.cfuns compiled);
        |]
      in
      Array.iteri charge times;
      let whole = best (fun () -> C.Static.analyze ~compiled p) in
      charge 5 (Array.fold_left Int64.sub whole times);
      charge 6 (best (fun () -> A.Redzone.audit ~red_zone:16 compiled)))
    programs;
  let a = Int64.to_float !analysis_ns
  and e = Int64.to_float !fiber_ns
  and o = Int64.to_float !oracle_ns in
  let per t = t /. 1e3 /. float_of_int (List.length programs) in
  let ratio = a /. o in
  Printf.printf
    "programs: %d (corpus %d + generated %d)\n\
     analysis: %.2f ms total, %.1f us/program\n\
     fiber execution: %.2f ms total, %.1f us/program (%.0f%% of it)\n\
     oracle execution: %.2f ms total, %.1f us/program\n\
     campaign overhead: %.1f%% of oracle execution time\n"
    (List.length programs)
    (List.length C.Corpus.entries)
    !count (a /. 1e6) (per a) (e /. 1e6) (per e)
    (100.0 *. a /. e)
    (o /. 1e6) (per o)
    (100.0 *. ratio);
  print_string "phase us/program:";
  Array.iteri
    (fun i name ->
      Printf.printf " %s %.2f;" name (per (Int64.to_float phase_ns.(i))))
    phases;
  print_newline ();
  if !check then
    if ratio < 0.20 then
      print_endline "check: ok (analysis < 20% of oracle execution)"
    else begin
      Printf.printf "check: FAILED (%.1f%% >= 20%%)\n" (100.0 *. ratio);
      exit 1
    end
