module F = Retrofit_fiber
module D = Retrofit_dwarf
module Sched = Retrofit_core.Sched
module Trace = Retrofit_trace.Trace
module Export = Retrofit_trace.Export
module Metrics = Retrofit_metrics.Metrics

(* A reperform-heavy workload: every [perform] hops through a handler
   chain, so almost every profiler sample lands on a stack that the
   unwinder has to carry across fiber boundaries — the §5.4 walk the
   acceptance criteria want visible in the folded output. *)
let machine_workload ~quick =
  F.Programs.effect_depth ~depth:6 ~iters:(if quick then 10 else 60)

let profiled_run ?(quick = false) () =
  let compiled = F.Compile.compile (machine_workload ~quick) in
  let table = D.Table.build compiled in
  let prof = D.Profile.create ~interval:500 table in
  let cache = F.Stack_cache.create () in
  let (outcome, counters), cache_stats =
    F.Stack_cache.scoped_stats cache (fun () ->
        F.Machine.run ~cache ~cfuns:F.Programs.standard_cfuns
          ~on_step:(D.Profile.hook prof) F.Config.mc compiled)
  in
  (match outcome with
  | F.Machine.Done _ -> ()
  | F.Machine.Uncaught (l, _) -> failwith ("observe workload raised " ^ l)
  | F.Machine.Fatal m -> failwith ("observe workload fatal: " ^ m));
  if Metrics.on () then begin
    Metrics.merge_counter_table counters;
    Metrics.set_gauge "stack_cache_lookups" cache_stats.F.Stack_cache.lookups;
    Metrics.set_gauge "stack_cache_hits" cache_stats.F.Stack_cache.hits;
    Metrics.set_gauge "stack_cache_misses" cache_stats.F.Stack_cache.misses;
    Metrics.set_gauge "stack_cache_puts" cache_stats.F.Stack_cache.puts;
    Metrics.set_gauge "stack_cache_rejected" cache_stats.F.Stack_cache.rejected
  end;
  D.Profile.publish prof;
  prof

(* A small cooperative workload so the scheduler's run-queue metrics
   and depth track appear in the same snapshot. *)
let sched_workload () =
  let total = ref 0 in
  Sched.run (fun () ->
      for i = 1 to 8 do
        Sched.fork (fun () ->
            for _ = 1 to 4 do
              Sched.yield ()
            done;
            total := !total + i)
      done);
  !total

(* Satellite of the causal layer: derive blocked-time samples for the
   profiler from an eventlog.  The machine's sampler only fires while
   instructions retire, so parked/runnable time is invisible to it; the
   causal reconstruction knows exactly which intervals were spent
   waiting, and each wait interval (plus each nonzero scheduler wakeup
   wait) becomes one synthetic [<wait:io>] / [<wait:runq>] sample. *)
let fold_waits prof (events : Retrofit_trace.Event.t list) =
  let module CG = Retrofit_causal.Graph in
  let g = Retrofit_causal.Reconstruct.of_events events in
  let runq = ref 0 in
  let io = ref 0 in
  List.iter
    (fun (r : CG.request) ->
      List.iter
        (fun (s : CG.seg) ->
          match s.CG.s_kind with
          | CG.Seg_queue _ -> incr runq
          | CG.Seg_stall | CG.Seg_drop | CG.Seg_backoff -> incr io
          | CG.Seg_service -> ())
        r.CG.r_path)
    g.CG.requests;
  List.iter
    (fun (reason, (count, total)) ->
      if total > 0 then
        match reason with
        | "io-line" | "io-eof" | "io-error" -> io := !io + count
        | _ -> runq := !runq + count)
    g.CG.summary.CG.g_wakeups;
  D.Profile.record_wait ~n:!runq prof ~kind:"runq";
  D.Profile.record_wait ~n:!io prof ~kind:"io";
  g

let report ?(quick = false) () =
  let buf = Buffer.create 1024 in
  let (), ring =
    Trace.scoped (fun () ->
        Metrics.scoped (fun _ ->
            let prof = profiled_run ~quick () in
            let sched_sum = sched_workload () in
            let folded = D.Profile.folded prof in
            let boundary =
              List.length
                (List.filter
                   (fun (stack, _) ->
                     List.mem "<fiber>" (String.split_on_char ';' stack))
                   (D.Profile.stacks prof))
            in
            Buffer.add_string buf
              (Printf.sprintf
                 "profiler: %d samples, %d distinct stacks (%d crossing fiber \
                  boundaries), %d unwind failures\n"
                 (D.Profile.samples prof)
                 (List.length (D.Profile.stacks prof))
                 boundary (D.Profile.failures prof));
            Buffer.add_string buf
              (Printf.sprintf "scheduler workload sum: %d\n" sched_sum);
            Buffer.add_string buf
              (Printf.sprintf "folded flamegraph (%d bytes):\n%s"
                 (String.length folded) folded);
            Buffer.add_string buf "\nmetrics snapshot:\n";
            Buffer.add_string buf (Metrics.to_prometheus ())))
  in
  Buffer.add_string buf
    (Printf.sprintf "\neventlog: %d events (%d dropped)\n" (Trace.length ring)
       (Trace.dropped ring));
  Buffer.contents buf
