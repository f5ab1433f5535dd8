(* Causal span-graph tests (ISSUE 9): determinism of the report bytes,
   the bucket-sum attribution invariant, wraparound safety, Chrome flow
   events, and the golden report the CI job diffs. *)

module HS = Retrofit_httpsim
module Causal = Retrofit_causal
module Trace = Retrofit_trace.Trace
module Export = Retrofit_trace.Export
module Metrics = Retrofit_metrics.Metrics
module C = Retrofit_core

let test name f = Alcotest.test_case name `Quick f

(* The same pipeline as `retrofit causal`: seeded resilient websim under
   a scoped ring, then reconstruction. *)
let capture ?(capacity = 1 lsl 18) ?(seed = 42) ?(faults = 0.5)
    ?(queue_cap = 512) ?(rate = 5_000) ?(duration = 300) () =
  let m, process = List.hd HS.Experiment.servers in
  let fault_rates = HS.Faults.scale faults HS.Faults.default in
  let _outcome, ring =
    Trace.scoped ~capacity (fun () ->
        HS.Loadgen.run ~seed ~faults:fault_rates ~queue_cap ~model:m ~process
          ~rate_rps:rate ~duration_ms:duration ())
  in
  ring

let report_of ring = Causal.Report.render (Causal.Reconstruct.of_trace ring)

(* (a) two identical seeded faulted runs -> byte-identical reports *)
let deterministic_report () =
  let r1 = report_of (capture ()) and r2 = report_of (capture ()) in
  Alcotest.(check string) "reports byte-identical" r1 r2;
  Alcotest.(check bool) "report is not trivial" true
    (String.length r1 > 500)

(* (b) the supervised websim (chaos + nursery scopes) traces
   deterministically too: double-run, compare report bytes *)
let supervised_deterministic () =
  let run () =
    let cfg = HS.Supervised.default_config ~seed:11 in
    let cfg =
      {
        cfg with
        HS.Supervised.connections = 40;
        chaos =
          Some
            {
              (C.Sched.Chaos.default ~seed:5) with
              C.Sched.Chaos.kill_rate = 0.002;
            };
        wedge_rate = 0.05;
      }
    in
    let summary, ring =
      Trace.scoped ~capacity:(1 lsl 16) (fun () -> HS.Supervised.run cfg)
    in
    (summary.HS.Supervised.total, report_of ring)
  in
  let t1, r1 = run () and t2, r2 = run () in
  Alcotest.(check int) "same request totals" t1 t2;
  Alcotest.(check string) "supervised reports byte-identical" r1 r2;
  let g =
    Causal.Reconstruct.of_trace
      (snd
         (Trace.scoped ~capacity:(1 lsl 16) (fun () ->
              HS.Supervised.run
                {
                  (HS.Supervised.default_config ~seed:11) with
                  HS.Supervised.connections = 40;
                })))
  in
  Alcotest.(check bool) "nursery scopes were traced" true
    (g.Causal.Graph.summary.g_nursery_spans > 0)

(* (c) property: for EVERY complete request the five buckets sum exactly
   to its latency, and the critical path tiles [arrival, done] with no
   gaps or overlaps *)
let buckets_sum_to_latency () =
  let g = Causal.Reconstruct.of_trace (capture ()) in
  let open Causal.Graph in
  Alcotest.(check bool) "have requests" true (g.summary.g_complete > 100);
  List.iter
    (fun r ->
      if buckets_sum r.r_buckets <> latency r then
        Alcotest.failf "req %d: buckets sum %d <> latency %d" r.r_id
          (buckets_sum r.r_buckets) (latency r);
      (match r.r_path with
      | [] -> Alcotest.failf "req %d: empty critical path" r.r_id
      | first :: _ ->
          if first.s_t0 <> r.r_arrival then
            Alcotest.failf "req %d: path starts after arrival" r.r_id);
      let last_t1 =
        List.fold_left
          (fun prev s ->
            if s.s_t0 <> prev then
              Alcotest.failf "req %d: gap/overlap at %d" r.r_id s.s_t0;
            if s.s_t1 <= s.s_t0 then
              Alcotest.failf "req %d: empty segment at %d" r.r_id s.s_t0;
            s.s_t1)
          r.r_arrival r.r_path
      in
      if last_t1 <> r.r_done then
        Alcotest.failf "req %d: path ends at %d, done at %d" r.r_id last_t1
          r.r_done)
    g.requests

(* (c') drill-down sanity on aggregated edges: service time is the
   running+gc+slow total, every stat is positive *)
let edges_consistent () =
  let g = Causal.Reconstruct.of_trace (capture ()) in
  let edges = Causal.Reconstruct.critical_edges g in
  Alcotest.(check bool) "several edge kinds" true (List.length edges >= 3);
  List.iter
    (fun (e : Causal.Graph.edge_stat) ->
      Alcotest.(check bool) (e.e_kind ^ " count > 0") true (e.e_count > 0);
      Alcotest.(check bool) (e.e_kind ^ " max <= total") true
        (e.e_max <= e.e_total))
    edges;
  let total kind =
    match
      List.find_opt (fun (e : Causal.Graph.edge_stat) -> e.e_kind = kind) edges
    with
    | Some e -> e.e_total
    | None -> 0
  in
  let open Causal.Graph in
  let b =
    List.fold_left
      (fun acc r ->
        {
          b_running = acc.b_running + r.r_buckets.b_running;
          b_sched = acc.b_sched + r.r_buckets.b_sched;
          b_io = acc.b_io + r.r_buckets.b_io;
          b_gc = acc.b_gc + r.r_buckets.b_gc;
          b_fault = acc.b_fault + r.r_buckets.b_fault;
        })
      { b_running = 0; b_sched = 0; b_io = 0; b_gc = 0; b_fault = 0 }
      g.requests
  in
  Alcotest.(check int) "service edge = running + gc + backend-slow"
    (total "service" + total "gc-pause" + total "backend-slow")
    (b.b_running + b.b_gc
    + List.fold_left
        (fun acc r ->
          List.fold_left (fun a (s : attempt_span) -> a + s.a_slow) acc
            r.r_attempts)
        0 g.requests);
  Alcotest.(check int) "queue edge = sched bucket" (total "queue") b.b_sched

(* (satellite) wraparound: an undersized ring truncates old requests
   into incomplete_spans; the survivors still satisfy the invariant *)
let wraparound_safe () =
  let ring = capture ~capacity:2048 ~rate:20_000 ~faults:1.0 ~seed:7 () in
  let g = Causal.Reconstruct.of_trace ring in
  let open Causal.Graph in
  Alcotest.(check bool) "events were dropped" true (g.summary.g_dropped > 0);
  Alcotest.(check int) "ring clamped" 2048 g.summary.g_events;
  Alcotest.(check bool) "some requests truncated" true
    (g.summary.g_incomplete > 0);
  Alcotest.(check bool) "some requests survive the window" true
    (g.summary.g_complete > 0);
  Alcotest.(check int) "complete + incomplete = requests"
    g.summary.g_requests
    (g.summary.g_complete + g.summary.g_incomplete);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "req %d invariant" r.r_id)
        (latency r) (buckets_sum r.r_buckets))
    g.requests;
  (* the report renders without raising even when nothing is complete *)
  let tiny = capture ~capacity:64 ~rate:20_000 ~faults:1.0 ~seed:7 () in
  let s = Causal.Report.render (Causal.Reconstruct.of_trace tiny) in
  Alcotest.(check bool) "tiny-ring report renders" true (String.length s > 0)

(* (tentpole surface) flow events: with_flows output passes the Chrome
   schema checker, and every complete request contributes one s..f chain *)
let flows_validate () =
  let ring = capture ~rate:2_000 ~duration:120 () in
  let g = Causal.Reconstruct.of_trace ring in
  let events = Causal.Reconstruct.with_flows (Trace.to_list ring) g in
  let json = Export.to_chrome ~dropped:(Trace.dropped ring) events in
  (match Export.validate_chrome json with
  | Ok n ->
      Alcotest.(check bool) "validator saw the flow events" true
        (n > List.length (Trace.to_list ring))
  | Error e -> Alcotest.failf "chrome schema: %s" e);
  let count step =
    List.length
      (List.filter
         (fun (e : Retrofit_trace.Event.t) ->
           match e.ev with
           | Retrofit_trace.Event.Flow { step = s; _ } -> s = step
           | _ -> false)
         events)
  in
  let open Retrofit_trace.Event in
  Alcotest.(check int) "one flow start per complete request"
    g.Causal.Graph.summary.g_complete (count Flow_start);
  Alcotest.(check int) "one flow end per complete request"
    g.Causal.Graph.summary.g_complete (count Flow_end);
  Alcotest.(check bool) "flow steps present" true (count Flow_step > 0)

(* (satellite) scheduler_runnable_wait_ns lands in the registry when
   both tracing and metrics are on *)
let runnable_wait_metric () =
  Metrics.reset ();
  Metrics.scoped (fun () ->
      C.Sched.run (fun () ->
          for _ = 1 to 4 do
            C.Sched.fork (fun () -> C.Sched.yield ())
          done;
          C.Sched.yield ());
      Alcotest.(check bool) "histogram observed" true
        (Metrics.get "scheduler_runnable_wait_ns" > 0))

(* (satellite) golden: the Prometheus exposition of a fixed registry is
   byte-stable, including sample ordering *)
let metrics_golden () =
  let ic = open_in "golden/metrics.golden" in
  let n = in_channel_length ic in
  let want = really_input_string ic n in
  close_in ic;
  let got =
    Metrics.reset ();
    Metrics.scoped (fun () ->
        Metrics.inc ~labels:[ ("model", "mc") ] ~by:3 "httpsim_requests_total";
        Metrics.inc ~labels:[ ("model", "go") ] ~by:2 "httpsim_requests_total";
        Metrics.inc ~by:7 "profile_wait_samples_total";
        (* the fuzz campaign's handler-resolution census *)
        Metrics.inc ~labels:[ ("class", "mono") ] ~by:4
          "perform_site_resolution_total";
        Metrics.inc ~labels:[ ("class", "poly") ] ~by:2
          "perform_site_resolution_total";
        Metrics.inc ~labels:[ ("class", "mega") ]
          "perform_site_resolution_total";
        Metrics.set_gauge "queue_depth" 5;
        List.iter
          (fun v ->
            Metrics.observe ~max_value:1_000_000_000
              "scheduler_runnable_wait_ns" v)
          [ 120; 450; 90_000; 1_200_000 ];
        Metrics.to_prometheus ())
  in
  Alcotest.(check string) "prometheus exposition matches golden" want got

(* (CI surface) golden: the causal report for the canonical seeded run.
   Regenerate with:
     dune exec bin/retrofit.exe -- causal --rate 5000 --duration 300 \
       --faults 0.5 --seed 42 > test/golden/causal.golden *)
let causal_golden () =
  let ic = open_in "golden/causal.golden" in
  let n = in_channel_length ic in
  let want = really_input_string ic n in
  close_in ic;
  let g = Causal.Reconstruct.of_trace (capture ()) in
  Alcotest.(check string) "causal report matches golden" want
    (Causal.Report.render ~top:8 g)

let suite =
  [
    test "report is deterministic across runs" deterministic_report;
    test "supervised chaos run is deterministic" supervised_deterministic;
    test "buckets sum to latency on every request" buckets_sum_to_latency;
    test "critical-path edges are consistent" edges_consistent;
    test "ring wraparound yields incomplete_spans, not lies" wraparound_safe;
    test "flow events pass the chrome schema" flows_validate;
    test "runnable-wait histogram is recorded" runnable_wait_metric;
    test "prometheus exposition golden" metrics_golden;
    test "causal report golden" causal_golden;
  ]
