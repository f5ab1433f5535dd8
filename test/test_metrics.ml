module Metrics = Retrofit_metrics.Metrics
module Histogram = Retrofit_util.Histogram
module Counter = Retrofit_util.Counter

let test name f = Alcotest.test_case name `Quick f

(* run a callback against a fresh enabled registry *)
let with_registry f = Metrics.scoped ~r:(Metrics.create ()) f

let counters_and_gauges () =
  with_registry (fun r ->
      Metrics.inc ~r "reqs";
      Metrics.inc ~r ~by:4 "reqs";
      Metrics.inc ~r ~labels:[ ("model", "seq") ] "reqs";
      Metrics.set_gauge ~r "depth" 7;
      Metrics.set_gauge ~r "depth" 3;
      Alcotest.(check int) "unlabelled counter" 5 (Metrics.get ~r "reqs");
      Alcotest.(check int) "labelled counter distinct" 1
        (Metrics.get ~r ~labels:[ ("model", "seq") ] "reqs");
      Alcotest.(check int) "gauge keeps last value" 3 (Metrics.get ~r "depth");
      Alcotest.(check int) "absent reads as zero" 0 (Metrics.get ~r "nope"))

let label_order_insensitive () =
  with_registry (fun r ->
      Metrics.inc ~r ~labels:[ ("a", "1"); ("b", "2") ] "c";
      Metrics.inc ~r ~labels:[ ("b", "2"); ("a", "1") ] "c";
      Alcotest.(check int) "both orders hit one instrument" 2
        (Metrics.get ~r ~labels:[ ("a", "1"); ("b", "2") ] "c"))

let kind_collision_rejected () =
  with_registry (fun r ->
      Metrics.inc ~r "x";
      Alcotest.(check bool) "counter reused as gauge rejected" true
        (match Metrics.set_gauge ~r "x" 1 with
        | () -> false
        | exception Invalid_argument _ -> true))

let observe_quantiles () =
  with_registry (fun r ->
      for v = 1 to 100 do
        Metrics.observe ~r "lat" (v * 1000)
      done;
      Alcotest.(check int) "histogram count via get" 100 (Metrics.get ~r "lat");
      match Metrics.snapshot ~r () with
      | [ { Metrics.name = "lat"; labels = []; value = Hist_v { count; p50; p99; _ } } ] ->
          Alcotest.(check int) "count" 100 count;
          Alcotest.(check bool) "p50 near the middle" true
            (p50 >= 45_000 && p50 <= 55_000);
          Alcotest.(check bool) "p99 near the top" true
            (p99 >= 95_000 && p99 <= 100_100)
      | s -> Alcotest.failf "unexpected snapshot shape (%d samples)" (List.length s))

let observe_histogram_copies () =
  with_registry (fun r ->
      let h = Histogram.create ~max_value:10_000 () in
      Histogram.record h 10;
      Histogram.record h 20;
      Metrics.observe_histogram ~r "lat" h;
      (* mutating the source afterwards must not leak into the registry *)
      Histogram.record h 30;
      Alcotest.(check int) "registry kept a copy" 2 (Metrics.get ~r "lat");
      Metrics.observe_histogram ~r "lat" h;
      Alcotest.(check int) "second observation merges" 5 (Metrics.get ~r "lat"))

let merge_counter_table_prefixes () =
  with_registry (fun r ->
      let c = Counter.create () in
      Counter.add c Counter.Switch 3;
      Counter.add c Counter.Stack_grow 1;
      Metrics.merge_counter_table ~r ~prefix:"fiber_" c;
      Alcotest.(check int) "prefixed" 3 (Metrics.get ~r "fiber_switch");
      Alcotest.(check int) "prefixed 2" 1 (Metrics.get ~r "fiber_stack_grow");
      Metrics.merge_counter_table ~r ~prefix:"fiber_" c;
      Alcotest.(check int) "merging adds" 6 (Metrics.get ~r "fiber_switch"))

let snapshot_sorted_deterministic () =
  with_registry (fun r ->
      Metrics.inc ~r "zeta";
      Metrics.inc ~r "alpha";
      Metrics.inc ~r ~labels:[ ("m", "b") ] "alpha";
      Metrics.inc ~r ~labels:[ ("m", "a") ] "alpha";
      let names =
        List.map
          (fun (s : Metrics.sample) -> (s.name, s.labels))
          (Metrics.snapshot ~r ())
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
        (Metrics.to_prometheus ~r ()) (Metrics.to_prometheus ~r ()))

let prometheus_format () =
  with_registry (fun r ->
      Metrics.inc ~r ~labels:[ ("model", "seq") ] ~by:2 "httpsim_requests_total";
      Metrics.set_gauge ~r "depth" 4;
      Metrics.observe ~r "lat" 1000;
      let text = Metrics.to_prometheus ~r () in
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
  let r = Metrics.create () in
  Metrics.inc ~r "x";
  Metrics.set_gauge ~r "g" 5;
  Metrics.observe ~r "h" 10;
  Alcotest.(check (list string)) "nothing registered while disabled" []
    (List.map (fun (s : Metrics.sample) -> s.name) (Metrics.snapshot ~r ()))

let scoped_restores () =
  let (_ : unit) = with_registry (fun _ -> ()) in
  Alcotest.(check bool) "disabled again after scope" false (Metrics.on ());
  with_registry (fun r1 ->
      let (_ : unit) = with_registry (fun _ -> ()) in
      Alcotest.(check bool) "still enabled in outer scope" true (Metrics.on ());
      Metrics.inc ~r:r1 "x";
      Alcotest.(check int) "outer registry usable after inner scope" 1
        (Metrics.get ~r:r1 "x"))

let reset_clears () =
  with_registry (fun r ->
      Metrics.inc ~r "x";
      Metrics.reset r;
      Alcotest.(check int) "cleared" 0 (Metrics.get ~r "x");
      Alcotest.(check (list string)) "no samples" []
        (List.map (fun (s : Metrics.sample) -> s.name) (Metrics.snapshot ~r ())))

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
