module Metrics = Retrofit_metrics.Metrics
module Histogram = Retrofit_util.Histogram
module Counter = Retrofit_util.Counter

let test name f = Alcotest.test_case name `Quick f

(* run a callback against the emptied, enabled registry *)
let with_registry f =
  Metrics.reset ();
  Metrics.scoped f

let counters_and_gauges () =
  with_registry (fun () ->
      Metrics.inc "reqs";
      Metrics.inc ~by:4 "reqs";
      Metrics.inc ~labels:[ ("model", "seq") ] "reqs";
      Metrics.set_gauge "depth" 7;
      Metrics.set_gauge "depth" 3;
      Alcotest.(check int) "unlabelled counter" 5 (Metrics.get "reqs");
      Alcotest.(check int) "labelled counter distinct" 1
        (Metrics.get ~labels:[ ("model", "seq") ] "reqs");
      Alcotest.(check int) "gauge keeps last value" 3 (Metrics.get "depth");
      Alcotest.(check int) "absent reads as zero" 0 (Metrics.get "nope"))

let label_order_insensitive () =
  with_registry (fun () ->
      Metrics.inc ~labels:[ ("a", "1"); ("b", "2") ] "c";
      Metrics.inc ~labels:[ ("b", "2"); ("a", "1") ] "c";
      Alcotest.(check int) "both orders hit one instrument" 2
        (Metrics.get ~labels:[ ("a", "1"); ("b", "2") ] "c"))

let kind_collision_rejected () =
  with_registry (fun () ->
      Metrics.inc "x";
      Alcotest.(check bool) "counter reused as gauge rejected" true
        (match Metrics.set_gauge "x" 1 with
        | () -> false
        | exception Invalid_argument _ -> true))

let observe_quantiles () =
  with_registry (fun () ->
      for v = 1 to 100 do
        Metrics.observe "lat" (v * 1000)
      done;
      Alcotest.(check int) "histogram count via get" 100 (Metrics.get "lat");
      match Metrics.snapshot () with
      | [ { Metrics.name = "lat"; labels = []; value = Hist_v { count; p50; p99; _ } } ] ->
          Alcotest.(check int) "count" 100 count;
          Alcotest.(check bool) "p50 near the middle" true
            (p50 >= 45_000 && p50 <= 55_000);
          Alcotest.(check bool) "p99 near the top" true
            (p99 >= 95_000 && p99 <= 100_100)
      | s -> Alcotest.failf "unexpected snapshot shape (%d samples)" (List.length s))

let observe_histogram_copies () =
  with_registry (fun () ->
      let h = Histogram.create ~max_value:10_000 () in
      Histogram.record h 10;
      Histogram.record h 20;
      Metrics.observe_histogram "lat" h;
      (* mutating the source afterwards must not leak into the registry *)
      Histogram.record h 30;
      Alcotest.(check int) "registry kept a copy" 2 (Metrics.get "lat");
      Metrics.observe_histogram "lat" h;
      Alcotest.(check int) "second observation merges" 5 (Metrics.get "lat"))

let merge_counter_table_prefixes () =
  with_registry (fun () ->
      let c = Counter.create () in
      Counter.add c Counter.Switch 3;
      Counter.add c Counter.Stack_grow 1;
      Metrics.merge_counter_table c;
      Alcotest.(check int) "prefixed" 3 (Metrics.get "fiber_switch");
      Alcotest.(check int) "prefixed 2" 1 (Metrics.get "fiber_stack_grow");
      Metrics.merge_counter_table c;
      Alcotest.(check int) "merging adds" 6 (Metrics.get "fiber_switch"))

let snapshot_sorted_deterministic () =
  with_registry (fun () ->
      Metrics.inc "zeta";
      Metrics.inc "alpha";
      Metrics.inc ~labels:[ ("m", "b") ] "alpha";
      Metrics.inc ~labels:[ ("m", "a") ] "alpha";
      let names =
        List.map
          (fun (s : Metrics.sample) -> (s.name, s.labels))
          (Metrics.snapshot ())
      in
      Alcotest.(check bool) "sorted by name then labels" true
        (names
        = [
            ("alpha", []);
            ("alpha", [ ("m", "a") ]);
            ("alpha", [ ("m", "b") ]);
            ("zeta", []);
          ]);
      Alcotest.(check string) "exposition is reproducible"
        (Metrics.to_prometheus ()) (Metrics.to_prometheus ()))

let prometheus_format () =
  with_registry (fun () ->
      Metrics.inc ~labels:[ ("model", "seq") ] ~by:2 "httpsim_requests_total";
      Metrics.set_gauge "depth" 4;
      Metrics.observe "lat" 1000;
      let text = Metrics.to_prometheus () in
      let has line =
        List.exists (fun l -> l = line) (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "TYPE counter" true
        (has "# TYPE httpsim_requests_total counter");
      Alcotest.(check bool) "labelled sample" true
        (has "httpsim_requests_total{model=\"seq\"} 2");
      Alcotest.(check bool) "TYPE gauge" true (has "# TYPE depth gauge");
      Alcotest.(check bool) "gauge sample" true (has "depth 4");
      Alcotest.(check bool) "histogram count" true (has "lat_count 1"))

let disabled_mutators_are_noops () =
  Alcotest.(check bool) "off by default" false (Metrics.on ());
  Metrics.reset ();
  Metrics.inc "x";
  Metrics.set_gauge "g" 5;
  Metrics.observe "h" 10;
  Alcotest.(check (list string)) "nothing registered while disabled" []
    (List.map (fun (s : Metrics.sample) -> s.name) (Metrics.snapshot ()))

let scoped_restores () =
  let (_ : unit) = with_registry (fun _ -> ()) in
  Alcotest.(check bool) "disabled again after scope" false (Metrics.on ());
  with_registry (fun () ->
      let (_ : unit) = with_registry (fun _ -> ()) in
      Alcotest.(check bool) "still enabled in outer scope" true (Metrics.on ());
      Metrics.inc "x";
      Alcotest.(check int) "outer registry usable after inner scope" 1
        (Metrics.get "x"))

let reset_clears () =
  with_registry (fun () ->
      Metrics.inc "x";
      Metrics.reset ();
      Alcotest.(check int) "cleared" 0 (Metrics.get "x");
      Alcotest.(check (list string)) "no samples" []
        (List.map (fun (s : Metrics.sample) -> s.name) (Metrics.snapshot ())))

let suite =
  [
    test "counters and gauges" counters_and_gauges;
    test "label order insensitive" label_order_insensitive;
    test "kind collision rejected" kind_collision_rejected;
    test "observe quantiles" observe_quantiles;
    test "observe_histogram copies then merges" observe_histogram_copies;
    test "merge_counter_table prefixes" merge_counter_table_prefixes;
    test "snapshot sorted and deterministic" snapshot_sorted_deterministic;
    test "prometheus exposition format" prometheus_format;
    test "disabled mutators are no-ops" disabled_mutators_are_noops;
    test "scoped enable restores" scoped_restores;
    test "reset clears the registry" reset_clears;
  ]
