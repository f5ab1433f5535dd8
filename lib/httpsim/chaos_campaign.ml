(* Chaos campaign over the supervised websim: each scenario derives a
   small randomized config from the campaign seed, runs it TWICE, and
   byte-compares the two summary lines — the determinism contract of
   the chaos scheduler (§2.3 protocol under adversarial interleaving)
   checked end-to-end through supervision, nurseries, watchdog and
   drain.  On top of determinism each run is audited for accounting
   invariants: every request has exactly one disposition, nothing is
   silently dropped, and a chaos-free undrained run completes
   everything with zero restarts. *)

module Rng = Retrofit_util.Rng
module Sched = Retrofit_core.Sched
module Sup = Retrofit_core.Supervise
module Sim = Supervised

type failure = {
  index : int;
  scenario_seed : int;
  kind : string;  (** [nondet] | [invariant] | [crash] *)
  detail : string;
}

type stats = {
  scenarios : int;
  runs : int;  (** simulation executions (2x per scenario) *)
  chaotic : int;  (** scenarios with chaos enabled *)
  drained : int;  (** scenarios exercising graceful drain *)
  restarts : int;  (** total supervisor restarts observed *)
  failures : failure list;
}

let scenario_seed ~seed i = (seed lxor ((i + 1) * 0x85EBCA6B)) land max_int

let scenario_config sseed =
  let rng = Rng.create sseed in
  let connections = 2 + Rng.int rng 5 in
  let requests_per_conn = 1 + Rng.int rng 4 in
  let shards = 1 + Rng.int rng 2 in
  let base = Sim.default_config ~seed:sseed in
  let chaos =
    if Rng.bool rng then
      let c = Sched.Chaos.default ~seed:(sseed lxor 0x5bd1e995) in
      Some
        {
          c with
          Sched.Chaos.kill_rate = (if Rng.bool rng then 0.01 else 0.002);
          delay_rate = 0.05 +. Rng.float rng 0.1;
        }
    else None
  in
  let drain =
    if Rng.int rng 3 = 0 then
      Some (Sim.interarrival_ns * connections * (1 + Rng.int rng 2))
    else None
  in
  let server = List.nth (Sim.servers ()) (Rng.int rng 3) in
  ( {
      base with
      Sim.connections;
      requests_per_conn;
      shards;
      chaos;
      wedge_rate = (if Rng.int rng 4 = 0 then 0.3 else 0.0);
      wedge_ns = 3_000_000;
      listener_strategy =
        (match Rng.int rng 3 with
        | 0 -> Sup.One_for_one
        | 1 -> Sup.One_for_all
        | _ -> Sup.Rest_for_one);
      max_restarts = 50;
      drain_after_ns = drain;
      drain_deadline_ns = 1_000_000;
    },
    server )

let check_invariants cfg (s : Sim.summary) =
  let errs = ref [] in
  let add m = errs := m :: !errs in
  if Sim.accounted s <> s.Sim.total then
    add
      (Printf.sprintf "accounting: %d dispositions over %d requests"
         (Sim.accounted s) s.Sim.total);
  if s.Sim.silent <> 0 then
    add (Printf.sprintf "silent drops: %d" s.Sim.silent);
  (if cfg.Sim.chaos = None && cfg.Sim.drain_after_ns = None
   && cfg.Sim.wedge_rate = 0.0 then begin
     if s.Sim.completed <> s.Sim.total then
       add
         (Printf.sprintf "calm run incomplete: %d/%d" s.Sim.completed
            s.Sim.total);
     if s.Sim.restarts <> 0 then
       add (Printf.sprintf "calm run restarted %d times" s.Sim.restarts)
   end);
  List.rev !errs

let campaign ?(count = 200) ~seed () =
  let failures = ref [] in
  let runs = ref 0 in
  let chaotic = ref 0 in
  let drained = ref 0 in
  let restarts = ref 0 in
  for i = 0 to count - 1 do
    let sseed = scenario_seed ~seed i in
    let cfg, (model, process) = scenario_config sseed in
    if cfg.Sim.chaos <> None then incr chaotic;
    if cfg.Sim.drain_after_ns <> None then incr drained;
    let fail kind detail =
      failures := { index = i; scenario_seed = sseed; kind; detail } :: !failures
    in
    match
      let run () =
        incr runs;
        Sim.run ~model ~process cfg
      in
      let a = run () in
      let b = run () in
      (a, b)
    with
    | exception e -> fail "crash" (Printexc.to_string e)
    | a, b ->
        let la = Sim.summary_to_string a and lb = Sim.summary_to_string b in
        if la <> lb then
          fail "nondet" (Printf.sprintf "run1: %s\nrun2: %s" la lb)
        else begin
          restarts := !restarts + a.Sim.restarts;
          match check_invariants cfg a with
          | [] -> ()
          | errs -> fail "invariant" (String.concat "; " errs ^ " | " ^ la)
        end
  done;
  {
    scenarios = count;
    runs = !runs;
    chaotic = !chaotic;
    drained = !drained;
    restarts = !restarts;
    failures = List.rev !failures;
  }

let stats_to_string st =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "chaos campaign: %d scenarios (%d runs, %d chaotic, %d drained), %d \
     restarts, %d failures\n"
    st.scenarios st.runs st.chaotic st.drained st.restarts
    (List.length st.failures);
  List.iter
    (fun f ->
      Printf.bprintf b "  FAIL #%d seed=%d [%s] %s\n" f.index f.scenario_seed
        f.kind f.detail)
    st.failures;
  Buffer.contents b
