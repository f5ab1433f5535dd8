(* The aggregated test runner: one alcotest suite per library area.

   `dune runtest` runs everything, including the Slow experiment tests;
   set ALCOTEST_QUICK_TESTS=1 to restrict to the quick ones. *)

let () =
  Alcotest.run "retrofit"
    [
      ("util.vec", Test_vec.suite);
      ("util", Test_util.suite);
      ("regex", Test_regex.suite);
      ("semantics", Test_semantics.suite);
      ("fiber", Test_fiber.suite);
      ("fiber.frozen", Test_frozen.suite);
      ("fiber.policy", Test_policy.suite);
      ("fiber.audit", Test_audit.suite);
      ("dwarf", Test_dwarf.suite);
      ("trace", Test_trace.suite);
      ("metrics", Test_metrics.suite);
      ("core", Test_core.suite);
      ("conformance", Test_conformance.suite);
      ("monad", Test_monad.suite);
      ("gen", Test_gen.suite);
      ("httpsim", Test_httpsim.suite);
      ("macro", Test_macro.suite);
      ("micro", Test_micro.suite);
      ("crosslevel", Test_crosslevel.suite);
      ("experiments", Test_experiments.suite);
      ("analysis", Test_analysis.suite);
      ("analysis.resolve", Test_resolve.suite);
      ("causal", Test_causal.suite);
      ("supervise", Test_supervise.suite);
      ("fiber.alloc", Test_fiber.alloc_suite);
      ("core.alloc", Test_core.alloc_suite);
    ]
