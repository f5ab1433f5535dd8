(* Supervision + chaos experiment (ISSUE 7).

   Three tables over the supervised websim:

   1. Recovery — each server model run calm, then under seeded chaos
      (fiber kills at suspension points, delayed resumes, spurious
      wakeups, reorders) plus wedge injection; the supervision tree
      must recover completed throughput to >=95% of the calm run.
   2. Drain — graceful-shutdown disposition accounting: every in-flight
      request completes or is cancelled at the deadline, every
      unaccepted one is rejected, nothing is silent.
   3. Determinism — the chaos campaign (small randomized scenarios run
      twice, summaries byte-compared). *)

module Sim = Retrofit_httpsim.Supervised
module Server = Retrofit_httpsim.Server
module Sched = Retrofit_core.Sched
module Campaign = Retrofit_httpsim.Chaos_campaign
module Table = Retrofit_util.Table

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let recovery_rows ~seed ~connections =
  List.map
    (fun ((model : Server.model), process) ->
      let base = { (Sim.default_config ~seed) with Sim.connections } in
      let calm = Sim.run ~model ~process base in
      let chaos = Sim.run ~model ~process (Sim.with_chaos base) in
      [
        model.Server.name;
        string_of_int calm.Sim.completed;
        string_of_int chaos.Sim.completed;
        Printf.sprintf "%.1f%%" (pct chaos.Sim.completed calm.Sim.completed);
        string_of_int chaos.Sim.killed;
        string_of_int chaos.Sim.restarts;
        string_of_int chaos.Sim.watchdog_kills;
        string_of_int chaos.Sim.silent;
        (match chaos.Sim.chaos_stats with
        | Some c ->
            Printf.sprintf "%d/%d/%d/%d" c.Sched.Chaos.kills
              c.Sched.Chaos.delays c.Sched.Chaos.reorders
              c.Sched.Chaos.spurious
        | None -> "-");
      ])
    (Sim.servers ())

let drain_rows ~seed ~connections =
  List.map
    (fun ((model : Server.model), process) ->
      let base = { (Sim.default_config ~seed) with Sim.connections } in
      let s =
        Sim.run ~model ~process
          {
            base with
            Sim.drain_after_ns = Some 400_000;
            (* tight deadline: some in-flight requests hit it, proving
               the cancel-at-deadline path alongside the complete path *)
            drain_deadline_ns = 60_000;
          }
      in
      [
        model.Server.name;
        string_of_int s.Sim.total;
        string_of_int s.Sim.completed;
        string_of_int s.Sim.cancelled_drain;
        string_of_int s.Sim.rejected_drain;
        string_of_int s.Sim.silent;
        Printf.sprintf "%.2f"
          (float_of_int s.Sim.drain_latency_ns /. 1e6);
        s.Sim.outcome;
      ])
    (Sim.servers ())

let report ?(quick = false) () =
  let seed = 1 in
  let connections = if quick then 40 else 120 in
  let count = if quick then 100 else 1000 in
  let r_header =
    [ "server"; "calm ok"; "chaos ok"; "recovery"; "killed"; "restarts";
      "wd kills"; "silent"; "k/d/r/s" ]
  in
  let d_header =
    [ "server"; "total"; "ok"; "drained"; "rejected"; "silent"; "drain ms";
      "outcome" ]
  in
  let align hdr = Table.Left :: List.map (fun _ -> Table.Right) (List.tl hdr) in
  let recovery =
    Table.render ~align:(align r_header) ~header:r_header
      (recovery_rows ~seed ~connections)
  in
  let drain =
    Table.render ~align:(align d_header) ~header:d_header
      (drain_rows ~seed ~connections)
  in
  let st = Campaign.campaign ~count ~seed () in
  Printf.sprintf
    "Supervised websim under seeded chaos (seed=%d, %d connections x 6 \
     requests, 4 shards)\n\
     chaos policy: kill 0.2%%, delay 5%%, reorder 10%%, spurious 2%% at \
     suspension points; wedge 5%% of accepts\n\n\
     Recovery (supervision tree restarts killed/wedged accept loops; \
     target >=95%% of calm completed):\n\
     %s\n\
     Graceful drain (stop accepting at t=0.4ms, 0.06ms deadline, then \
     bottom-up shutdown):\n\
     %s\n\
     Determinism campaign (%d randomized scenarios, each run twice, \
     summaries byte-compared):\n\
     %s"
    seed connections recovery drain count (Campaign.stats_to_string st)
