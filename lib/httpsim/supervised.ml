(* The supervised web-server simulation: the three §6.3.4 servers run
   at the fiber level under a supervision tree, with per-connection
   nurseries, a watchdog health-checking the accept loops, graceful
   drain, and (optionally) the seeded chaos scheduler underneath.

   Topology:

     root (one_for_one)
     ├── listeners (sup, strategy configurable)
     │   ├── accept-0 .. accept-(shards-1)   transient, killable
     │   └── (each accept loop owns a Nursery of connection handlers,
     │        each connection handler a Nursery of request fibers)
     └── watchdog                            transient, killable

   Everything is virtual-time (one Evloop drives sleeps via Sched.run's
   idle hook) and every random draw comes from the config seed, so a
   run — including one under chaos — is a pure function of the config
   and double runs are byte-identical.

   Every request ends in exactly one disposition (the [silent] counter
   exists to prove its own zero): completed (by status class), aborted
   by a kill/crash, cancelled by the drain deadline, rejected because
   the listener was draining, or lost because the tree gave up. *)

module Rng = Retrofit_util.Rng
module Histogram = Retrofit_util.Histogram
module Sched = Retrofit_core.Sched
module Evloop = Retrofit_core.Evloop
module Sup = Retrofit_core.Supervise
module Nursery = Retrofit_core.Supervise.Nursery
module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics

type config = {
  seed : int;
  connections : int;
  requests_per_conn : int;
  interarrival_ns : int;  (** mean gap between connection arrivals *)
  think_ns : int;  (** gap between pipelined requests on a connection *)
  service_jitter_ns : int;  (** uniform jitter added to each service time *)
  shards : int;  (** number of accept loops *)
  listener_strategy : Sup.strategy;
  max_restarts : int;
  window_ns : int;  (** restart-intensity window; 0 = unbounded *)
  chaos : Sched.Chaos.t option;
  wedge_rate : float;  (** P(a connection wedges its accept loop) *)
  wedge_ns : int;  (** how long a wedged loop stops heartbeating *)
  watchdog_interval_ns : int;
  watchdog_stale_ns : int;  (** heartbeat age that gets a loop killed *)
  accept_chunk_ns : int;  (** max sleep between accept-loop heartbeats *)
  drain_after_ns : int option;  (** start graceful drain at this time *)
  drain_deadline_ns : int;  (** grace period before in-flight cancel *)
  poll_ns : int;  (** main/drain poll interval *)
}

let default_config ~seed =
  {
    seed;
    connections = 120;
    requests_per_conn = 6;
    interarrival_ns = 20_000;
    think_ns = 30_000;
    service_jitter_ns = 10_000;
    shards = 4;
    listener_strategy = Sup.One_for_one;
    max_restarts = 100;
    window_ns = 0;
    chaos = None;
    wedge_rate = 0.0;
    wedge_ns = 5_000_000;
    watchdog_interval_ns = 200_000;
    watchdog_stale_ns = 1_000_000;
    accept_chunk_ns = 100_000;
    drain_after_ns = None;
    drain_deadline_ns = 2_000_000;
    poll_ns = 50_000;
  }

(* Exactly one terminal disposition per request. *)
type cell_state =
  | Pending
  | Started
  | Done of int  (* response status *)
  | Aborted  (* killed / crashed / scope-cancelled before drain *)
  | Drained  (* cancelled by the drain deadline *)
  | Rejected  (* connection never accepted: listener was draining *)
  | Lost  (* connection never accepted: tree gave up *)

type cell = { mutable st : cell_state; mutable cost : int }

type summary = {
  server : string;
  total : int;
  completed : int;
  server_errors : int;
  client_errors : int;
  killed : int;
  cancelled_drain : int;
  rejected_drain : int;
  lost : int;
  silent : int;
  conns_aborted : int;
  restarts : int;
  escalations : int;
  watchdog_kills : int;
  chaos_stats : Sched.Chaos.stats option;
  outcome : string;
  duration_ns : int;
  drain_latency_ns : int;
  throughput_rps : float;
  p50_ns : int;
  p99_ns : int;
}

let is_terminal = function Pending | Started -> false | _ -> true

let run_server ~(model : Server.model)
    ~(process : ?pre:(unit -> unit) -> string -> string) cfg =
  if cfg.shards < 1 then invalid_arg "Supervised.run_server: shards < 1";
  let loop = Evloop.create () in
  let now () = Evloop.now loop in
  let sleep d =
    if d > 0 then Sched.suspend (fun r -> Evloop.after loop ~delay:d r)
    else Sched.yield ()
  in
  (* The whole workload plan is drawn up front from the seed, so the
     chaos rng (inside Sched) and the workload rng never interleave. *)
  let rng = Rng.create cfg.seed in
  let arrivals = Array.make cfg.connections 0 in
  let wedges = Array.make cfg.connections false in
  let t = ref 0 in
  for c = 0 to cfg.connections - 1 do
    t := !t + 1 + Rng.int rng (max 1 (2 * cfg.interarrival_ns));
    arrivals.(c) <- !t;
    wedges.(c) <- cfg.wedge_rate > 0.0 && Rng.float rng 1.0 < cfg.wedge_rate
  done;
  let cells =
    Array.init cfg.connections (fun _ ->
        Array.init cfg.requests_per_conn (fun _ ->
            {
              st = Pending;
              cost =
                model.Server.parse_ns + model.Server.service_ns
                + Rng.int rng (max 1 cfg.service_jitter_ns);
            }))
  in
  let raws =
    Array.init cfg.connections (fun c ->
        Netsim.request_for ~target:"/" ~conn_id:c)
  in
  let total = cfg.connections * cfg.requests_per_conn in
  let remaining = ref total in
  let mark cell st =
    if not (is_terminal cell.st) then begin
      cell.st <- st;
      decr remaining
    end
  in
  let hist = Histogram.create ~max_value:1_000_000_000 () in
  let accepted = Array.make cfg.connections false in
  let draining = ref false in
  let drained = ref false in
  let drain_latency = ref (-1) in
  let conns_aborted = ref 0 in
  let watchdog_kills = ref 0 in
  let outcome = ref None in
  let h_ref : Sup.handle option ref = ref None in
  (* shard c handles connections with c mod shards = shard *)
  let shard_conns =
    Array.init cfg.shards (fun s ->
        Array.of_list
          (List.filter
             (fun c -> c mod cfg.shards = s)
             (List.init cfg.connections (fun c -> c))))
  in
  let cursor = Array.init cfg.shards (fun _ -> ref 0) in
  let pending_conn = Array.init cfg.shards (fun _ -> ref None) in
  let shard_state = Array.make cfg.shards `Idle in
  let emit_drain phase =
    if Trace.on () then Trace.emit ~ts:(now ()) (Tev.Drain_phase { phase })
  in
  let request_fiber c r () =
    let cell = cells.(c).(r) in
    cell.st <- Started;
    let issue = now () in
    match process ~pre:(fun () -> sleep cell.cost) raws.(c) with
    | reply ->
        let lat = now () - issue in
        let status =
          match Http.response_status reply with Ok s -> s | Error _ -> 500
        in
        mark cell (Done status);
        if status = 200 then Histogram.record hist lat
    | exception Sched.Cancelled ->
        mark cell (if !draining then Drained else Aborted);
        raise Sched.Cancelled
    | exception Sched.Killed ->
        mark cell Aborted;
        raise Sched.Killed
  in
  let conn_handler c () =
    match
      Nursery.run ~clock:now
        ~name:("conn-" ^ string_of_int c)
        (fun n ->
          for r = 0 to cfg.requests_per_conn - 1 do
            if r > 0 then sleep cfg.think_ns;
            Nursery.check n;
            Nursery.fork n (request_fiber c r)
          done;
          Nursery.join n)
    with
    | () -> ()
    | exception e -> (
        (* connection-level barrier: account for every request that
           will now never run, and keep the listener alive *)
        incr conns_aborted;
        Array.iter
          (fun cell ->
            if not (is_terminal cell.st) then
              mark cell (if !draining then Drained else Aborted))
          cells.(c);
        match e with Sched.Cancelled | Sched.Killed | _ -> ())
  in
  let rec wait_until target =
    let n = now () in
    if n < target && not !draining then begin
      sleep (min cfg.accept_chunk_ns (target - n));
      Sup.heartbeat ();
      wait_until target
    end
  in
  let accept_loop shard () =
    shard_state.(shard) <- `Accepting;
    Sup.heartbeat ();
    Nursery.run ~clock:now
      ~name:("accept-" ^ string_of_int shard)
      (fun n ->
        let rec next () =
          if not !draining then
            match
              match !(pending_conn.(shard)) with
              | Some c -> Some c
              | None ->
                  let cur = cursor.(shard) in
                  if !cur < Array.length shard_conns.(shard) then begin
                    let c = shard_conns.(shard).(!cur) in
                    incr cur;
                    (* remembered across a kill: a restarted loop
                       re-accepts the connection it was parked on *)
                    pending_conn.(shard) := Some c;
                    Some c
                  end
                  else None
            with
            | None -> ()
            | Some c ->
                wait_until arrivals.(c);
                if wedges.(c) && not !draining then begin
                  wedges.(c) <- false;
                  (* wedged: a long sleep with no heartbeat — the
                     watchdog's job is to notice and kill us *)
                  sleep cfg.wedge_ns
                end;
                if not !draining then begin
                  Sup.heartbeat ();
                  accepted.(c) <- true;
                  Nursery.fork n (conn_handler c);
                  pending_conn.(shard) := None;
                  next ()
                end
        in
        next ();
        shard_state.(shard) <- `Joining;
        Nursery.join n);
    shard_state.(shard) <- `Done
  in
  let watchdog () =
    let rec wd () =
      sleep cfg.watchdog_interval_ns;
      Sup.heartbeat ();
      if not !draining then begin
        (match !h_ref with
        | Some h ->
            for i = 0 to cfg.shards - 1 do
              let name = "accept-" ^ string_of_int i in
              if shard_state.(i) = `Accepting then
                match Sup.last_heartbeat h name with
                | Some beat when now () - beat > cfg.watchdog_stale_ns ->
                    incr watchdog_kills;
                    if Metrics.on () then Metrics.inc "websim_watchdog_kills_total";
                    ignore (Sup.kill h name)
                | _ -> ()
            done
        | None -> ());
        wd ()
      end
    in
    wd ()
  in
  let tree =
    Sup.supervisor ~strategy:Sup.One_for_one ~max_restarts:cfg.max_restarts
      ~window:cfg.window_ns "root"
      [
        Sup.supervisor ~strategy:cfg.listener_strategy
          ~max_restarts:cfg.max_restarts ~window:cfg.window_ns "listeners"
          (List.init cfg.shards (fun i ->
               Sup.worker ~restart:Sup.Transient ~killable:true
                 ("accept-" ^ string_of_int i)
                 (accept_loop i)));
        Sup.worker ~restart:Sup.Transient ~killable:true "watchdog" watchdog;
      ]
  in
  let in_flight () =
    let n = ref 0 in
    Array.iteri
      (fun c row ->
        if accepted.(c) then
          Array.iter (fun cell -> if not (is_terminal cell.st) then incr n) row)
      cells;
    !n
  in
  let all_terminal () = !remaining = 0 in
  let stats_restarts = ref 0 in
  let stats_escalations = ref 0 in
  Sched.run ?chaos:cfg.chaos ~clock:now
    ~idle:(fun () -> Evloop.advance_once loop)
    (fun () ->
      let h = Sup.start ~clock:now tree in
      h_ref := Some h;
      (match cfg.drain_after_ns with
      | Some t0 ->
          Sched.fork (fun () ->
              let d = t0 - now () in
              sleep d;
              if Sup.running h then begin
                draining := true;
                emit_drain "begin";
                let t_begin = now () in
                let deadline = t_begin + cfg.drain_deadline_ns in
                let rec poll () =
                  if in_flight () > 0 && now () < deadline && Sup.running h
                  then begin
                    sleep cfg.poll_ns;
                    poll ()
                  end
                in
                poll ();
                emit_drain (if in_flight () = 0 then "complete" else "deadline");
                (* graceful bottom-up teardown; anything past the
                   deadline is cancelled on the way down *)
                outcome := Some (Sup.shutdown h);
                drain_latency := now () - t_begin;
                emit_drain "done"
              end;
              drained := true)
      | None -> ());
      let rec waitloop () =
        let finished =
          match cfg.drain_after_ns with
          | Some _ -> !drained
          | None -> all_terminal () || not (Sup.running h)
        in
        if not finished then begin
          sleep cfg.poll_ns;
          waitloop ()
        end
      in
      waitloop ();
      stats_restarts := Sup.restarts h;
      stats_escalations := Sup.escalations h;
      match !outcome with
      | Some _ -> ()
      | None ->
          outcome := Some (if Sup.running h then Sup.shutdown h else Sup.wait h));
  (* Final sweep: everything not terminal gets its disposition here —
     nothing may remain silent. *)
  let silent = ref 0 in
  Array.iteri
    (fun c row ->
      Array.iter
        (fun cell ->
          match cell.st with
          | Pending | Started ->
              if not accepted.(c) then
                mark cell (if !draining then Rejected else Lost)
              else begin
                (* accepted but no disposition: a genuine silent drop *)
                incr silent;
                mark cell Aborted
              end
          | _ -> ())
        row)
    cells;
  let count f =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc cell -> if f cell.st then acc + 1 else acc) acc row)
      0 cells
  in
  let completed = count (function Done s -> s >= 200 && s < 300 | _ -> false) in
  let duration_ns = max 1 (now ()) in
  let s =
    {
      server = model.Server.name;
      total;
      completed;
      server_errors = count (function Done s -> s >= 500 | _ -> false);
      client_errors = count (function Done s -> s >= 400 && s < 500 | _ -> false);
      killed = count (function Aborted -> true | _ -> false);
      cancelled_drain = count (function Drained -> true | _ -> false);
      rejected_drain = count (function Rejected -> true | _ -> false);
      lost = count (function Lost -> true | _ -> false);
      silent = !silent;
      conns_aborted = !conns_aborted;
      restarts = !stats_restarts;
      escalations = !stats_escalations;
      watchdog_kills = !watchdog_kills;
      chaos_stats =
        (match cfg.chaos with Some _ -> Sched.chaos_stats () | None -> None);
      outcome =
        (match !outcome with
        | Some Sup.Completed -> "completed"
        | Some (Sup.Gave_up p) -> "gave_up:" ^ p
        | None -> "none");
      duration_ns;
      drain_latency_ns = !drain_latency;
      throughput_rps = float_of_int completed *. 1e9 /. float_of_int duration_ns;
      p50_ns = (if Histogram.count hist = 0 then 0 else Histogram.value_at_percentile hist 50.0);
      p99_ns = (if Histogram.count hist = 0 then 0 else Histogram.value_at_percentile hist 99.0);
    }
  in
  if Metrics.on () then begin
    Metrics.inc "websim_supervised_runs_total";
    Metrics.set_gauge "websim_supervised_restarts" s.restarts;
    Metrics.set_gauge "websim_supervised_completed" s.completed;
    if s.drain_latency_ns >= 0 then
      Metrics.observe ~max_value:1_000_000_000 "websim_drain_latency_ns"
        s.drain_latency_ns
  end;
  s

let run ?(model = Server.mc) ?process cfg =
  let process =
    match process with Some p -> p | None -> Server_effects.process_raw_with
  in
  run_server ~model ~process cfg

let run_servers cfg =
  [
    run_server ~model:Server.mc ~process:Server_effects.process_raw_with cfg;
    run_server ~model:Server.go ~process:Server_go.process_raw_with cfg;
    run_server ~model:Server.lwt ~process:Server_monad.process_raw_with cfg;
  ]

let chaos_of_summary s =
  match s.chaos_stats with
  | None -> "-"
  | Some c ->
      Printf.sprintf "k%d/d%d/r%d/s%d" c.Sched.Chaos.kills c.Sched.Chaos.delays
        c.Sched.Chaos.reorders c.Sched.Chaos.spurious

let summary_to_string s =
  Printf.sprintf
    "%s: total=%d ok=%d 5xx=%d 4xx=%d killed=%d drained=%d rejected=%d lost=%d \
     silent=%d conns_aborted=%d restarts=%d escalations=%d watchdog_kills=%d \
     chaos=%s outcome=%s drain_ns=%d p50_ns=%d p99_ns=%d"
    s.server s.total s.completed s.server_errors s.client_errors s.killed
    s.cancelled_drain s.rejected_drain s.lost s.silent s.conns_aborted
    s.restarts s.escalations s.watchdog_kills (chaos_of_summary s) s.outcome
    s.drain_latency_ns s.p50_ns s.p99_ns

let accounted s =
  s.completed + s.server_errors + s.client_errors + s.killed
  + s.cancelled_drain + s.rejected_drain + s.lost
