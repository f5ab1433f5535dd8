module Trace = Retrofit_trace.Trace
module Event = Retrofit_trace.Event
module Export = Retrofit_trace.Export
module Metrics = Retrofit_metrics.Metrics
module F = Retrofit_fiber
module HS = Retrofit_httpsim

let test name f = Alcotest.test_case name `Quick f

let mark i = { Event.ts = i; ev = Event.Mark { name = Printf.sprintf "m%d" i } }

(* ---------------- Ring buffer ---------------- *)

let ring_exact_capacity () =
  let r = Trace.create ~capacity:4 in
  for i = 1 to 4 do
    Trace.add r (mark i)
  done;
  Alcotest.(check int) "length" 4 (Trace.length r);
  Alcotest.(check int) "capacity" 4 (Trace.capacity r);
  Alcotest.(check int) "nothing dropped at exactly capacity" 0 (Trace.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3; 4 ]
    (List.map (fun (e : Event.t) -> e.ts) (Trace.to_list r))

let ring_wraparound_drops_oldest () =
  let r = Trace.create ~capacity:4 in
  for i = 1 to 7 do
    Trace.add r (mark i)
  done;
  Alcotest.(check int) "length stays at capacity" 4 (Trace.length r);
  Alcotest.(check int) "dropped counts the overwrites" 3 (Trace.dropped r);
  Alcotest.(check (list int)) "oldest events evicted first" [ 4; 5; 6; 7 ]
    (List.map (fun (e : Event.t) -> e.ts) (Trace.to_list r));
  (* one more wraps again *)
  Trace.add r (mark 8);
  Alcotest.(check (list int)) "steady-state window" [ 5; 6; 7; 8 ]
    (List.map (fun (e : Event.t) -> e.ts) (Trace.to_list r));
  Alcotest.(check int) "dropped keeps counting" 4 (Trace.dropped r)

let ring_rejects_bad_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (match Trace.create ~capacity:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let overflow_increments_dropped_metric () =
  Metrics.reset ();
  let (), _ring =
    Metrics.scoped (fun _ ->
        Trace.scoped ~capacity:2 (fun () ->
            for i = 1 to 5 do
              Trace.emit ~ts:i (Event.Mark { name = "x" })
            done))
  in
  Alcotest.(check int) "trace_dropped_events counts the loss" 3
    (Metrics.get "trace_dropped_events")

(* ---------------- Session semantics ---------------- *)

let disabled_emit_is_noop () =
  Alcotest.(check bool) "off by default" false (Trace.on ());
  Trace.emit ~ts:1 (Event.Mark { name = "ignored" });
  Alcotest.(check int) "no events without a session" 0
    (List.length (Trace.events ()))

let scoped_nests_and_restores () =
  let (), outer =
    Trace.scoped (fun () ->
        Trace.emit ~ts:1 (Event.Mark { name = "outer" });
        let (), inner =
          Trace.scoped (fun () ->
              Alcotest.(check bool) "on inside" true (Trace.on ());
              Trace.emit ~ts:2 (Event.Mark { name = "inner" }))
        in
        Alcotest.(check int) "inner ring sees only inner" 1 (Trace.length inner);
        (* the outer session is restored after the inner scope *)
        Trace.emit ~ts:3 (Event.Mark { name = "outer again" }))
  in
  Alcotest.(check bool) "off after scope" false (Trace.on ());
  Alcotest.(check (list int)) "outer ring unaffected by inner scope" [ 1; 3 ]
    (List.map (fun (e : Event.t) -> e.ts) (Trace.to_list outer))

(* ---------------- Exporters and the schema checker ---------------- *)

let traced_machine_run () =
  let compiled =
    F.Compile.compile (F.Programs.effect_depth ~depth:4 ~iters:20)
  in
  Trace.scoped (fun () ->
      match F.Machine.run ~cfuns:F.Programs.standard_cfuns F.Config.mc compiled with
      | F.Machine.Done _, counters -> counters
      | _ -> Alcotest.fail "effect_depth failed")

let chrome_export_validates () =
  let _counters, ring = traced_machine_run () in
  Alcotest.(check bool) "machine emitted events" true (Trace.length ring > 0);
  let json = Export.of_trace_chrome ring in
  match Export.validate_chrome json with
  | Ok n -> Alcotest.(check int) "validator sees every event" (Trace.length ring) n
  | Error e -> Alcotest.failf "schema checker rejected our own export: %s" e

let validator_rejects_malformed () =
  let reject s =
    match Export.validate_chrome s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  reject "";
  reject "not json";
  reject "[1,2,3]";
  reject "{\"traceEvents\": 5}";
  reject "{\"traceEvents\": [5]}";
  reject "{\"traceEvents\": [{\"name\": \"x\"}]}";
  (* unknown phase letter *)
  reject
    "{\"traceEvents\": [{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"Z\",\"ts\":0,\
     \"pid\":1,\"tid\":1}]}";
  (* complete event without dur *)
  reject
    "{\"traceEvents\": [{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":0,\
     \"pid\":1,\"tid\":1}]}"

let text_export_covers_events () =
  let _counters, ring = traced_machine_run () in
  let text = Export.of_trace_text ring in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "one line per event" (Trace.length ring) (List.length lines)

(* ---------------- Determinism ---------------- *)

let machine_trace_deterministic () =
  let _c1, r1 = traced_machine_run () in
  let _c2, r2 = traced_machine_run () in
  Alcotest.(check string) "byte-identical chrome export"
    (Export.of_trace_chrome r1) (Export.of_trace_chrome r2);
  Alcotest.(check string) "byte-identical text export"
    (Export.of_trace_text r1) (Export.of_trace_text r2)

let websim_trace_deterministic () =
  (* the seeded websim workload: resilient loadgen under fault injection,
     exactly what `retrofit websim --trace` records *)
  let go () =
    let model, process = List.hd HS.Experiment.servers in
    Trace.scoped (fun () ->
        ignore
          (HS.Loadgen.run ~seed:11
             ~faults:(HS.Faults.scale 0.5 HS.Faults.default)
             ~model ~process ~rate_rps:2_000 ~duration_ms:150 ()))
  in
  let (), r1 = go () in
  let (), r2 = go () in
  Alcotest.(check bool) "loadgen emitted events" true (Trace.length r1 > 0);
  Alcotest.(check string) "byte-identical websim eventlog"
    (Export.of_trace_chrome r1) (Export.of_trace_chrome r2)

let fuzz_campaign_trace_deterministic () =
  let go () =
    Trace.scoped (fun () ->
        ignore (Retrofit_conformance.Fuzz.campaign ~seed:3 ~count:15 ()))
  in
  let (), r1 = go () in
  let (), r2 = go () in
  Alcotest.(check string) "byte-identical fuzz-campaign eventlog"
    (Export.of_trace_chrome r1) (Export.of_trace_chrome r2)

let counters_unchanged_by_tracing () =
  (* enabling the eventlog must not move a single cost counter, or the
     pinned Table 1/2 outputs would drift *)
  let compiled =
    F.Compile.compile (F.Programs.effect_depth ~depth:4 ~iters:20)
  in
  let run () =
    F.Machine.run ~cfuns:F.Programs.standard_cfuns F.Config.mc compiled
  in
  let _, off = run () in
  let (_, on), _ring = Trace.scoped run in
  Alcotest.(check bool) "counter tables identical" true
    (Retrofit_util.Counter.to_list off = Retrofit_util.Counter.to_list on)

let suite =
  [
    test "ring at exact capacity" ring_exact_capacity;
    test "ring wraparound drops oldest" ring_wraparound_drops_oldest;
    test "ring rejects capacity 0" ring_rejects_bad_capacity;
    test "overflow increments trace_dropped_events" overflow_increments_dropped_metric;
    test "disabled emit is a no-op" disabled_emit_is_noop;
    test "scoped sessions nest and restore" scoped_nests_and_restores;
    test "chrome export passes the schema checker" chrome_export_validates;
    test "schema checker rejects malformed input" validator_rejects_malformed;
    test "text export covers every event" text_export_covers_events;
    test "machine eventlog deterministic" machine_trace_deterministic;
    test "websim eventlog deterministic" websim_trace_deterministic;
    test "fuzz-campaign eventlog deterministic" fuzz_campaign_trace_deterministic;
    test "tracing leaves cost counters untouched" counters_unchanged_by_tracing;
  ]
