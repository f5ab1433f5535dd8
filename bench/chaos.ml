(* Chaos harness CLI.

   Runs the seeded chaos campaign over the supervised websim (each
   scenario executed twice and byte-compared — the determinism gate),
   plus optional focused drain and recovery demonstrations.  Exit code
   0 only when every scenario is deterministic and invariant-clean, so
   CI can gate on it directly. *)

module Campaign = Retrofit_httpsim.Chaos_campaign
module Sim = Retrofit_httpsim.Supervised

let drain_demo ~seed =
  let base = Sim.default_config ~seed in
  let cfg =
    {
      base with
      Sim.connections = 40;
      drain_after_ns = Some 400_000;
    }
  in
  let s = Sim.run cfg in
  Printf.printf "drain: %s\n" (Sim.summary_to_string s);
  s.Sim.silent = 0 && Sim.accounted s = s.Sim.total

let recovery_demo ~seed =
  let base = Sim.default_config ~seed in
  let calm = Sim.run base in
  let chaos = Sim.run (Sim.with_chaos base) in
  let pct =
    100.0 *. float_of_int chaos.Sim.completed /. float_of_int calm.Sim.completed
  in
  Printf.printf "calm : %s\n" (Sim.summary_to_string calm);
  Printf.printf "chaos: %s\n" (Sim.summary_to_string chaos);
  Printf.printf "recovery: %.1f%% of calm throughput (restarts=%d)\n" pct
    chaos.Sim.restarts;
  pct >= 95.0 && chaos.Sim.silent = 0

let () =
  let seed = ref 1 in
  let count = ref 1000 in
  let smoke = ref false in
  let drain = ref false in
  let recovery = ref false in
  let speclist =
    [
      ("--seed", Arg.Set_int seed, "INT campaign seed (default 1)");
      ("--count", Arg.Set_int count, "INT scenarios (default 1000)");
      ("--smoke", Arg.Set smoke, " quick 50-scenario pass");
      ("--drain", Arg.Set drain, " also run the graceful-drain demonstration");
      ( "--recovery",
        Arg.Set recovery,
        " also check supervised throughput under chaos recovers to >=95% of \
         the calm baseline" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "chaos [options]";
  if !smoke then count := 50;
  let failed = ref false in
  let st = Campaign.campaign ~count:!count ~seed:!seed () in
  print_string (Campaign.stats_to_string st);
  if st.Campaign.failures <> [] then failed := true;
  if !drain && not (drain_demo ~seed:!seed) then begin
    print_endline "FAIL: drain demonstration violated accounting";
    failed := true
  end;
  if !recovery && not (recovery_demo ~seed:!seed) then begin
    print_endline "FAIL: recovery below 95% (or silent drops)";
    failed := true
  end;
  exit (if !failed then 1 else 0)
