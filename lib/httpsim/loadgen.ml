module Rng = Retrofit_util.Rng
module Histogram = Retrofit_util.Histogram
module Pqueue = Retrofit_util.Pqueue
module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics

type fault_account = {
  injected : int;
  to_malformed : int;
  to_retried : int;
  to_timeout : int;
  to_server_error : int;
  to_absorbed : int;
}

type resilience = {
  deadline_ns : int;
  max_attempts : int;
  backoff_base_ns : int;
  backoff_jitter_ns : int;
  drop_detect_ns : int;
  queue_cap : int;
}

let default_resilience =
  {
    deadline_ns = 1_000_000_000;
    max_attempts = 3;
    backoff_base_ns = 1_000_000;
    backoff_jitter_ns = 500_000;
    drop_detect_ns = 200_000;
    queue_cap = 512;
  }

let lenient_resilience =
  {
    deadline_ns = max_int / 2;
    max_attempts = 1;
    backoff_base_ns = 0;
    backoff_jitter_ns = 0;
    drop_detect_ns = 0;
    queue_cap = max_int;
  }

type outcome = {
  model_name : string;
  offered_rps : int;
  achieved_rps : float;
  total_requests : int;
  completed : int;
  errors : int;
  timeouts : int;
  retries : int;
  shed : int;
  malformed : int;
  server_errors : int;
  faults : fault_account;
  gc_pauses : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

(* Push a finished run's error taxonomy, latency distribution and peak
   queue depth into the metrics registry, labelled by server model.
   Counters and the histogram are only touched when the registry is
   enabled, so the pinned Fig 6 numbers cannot move. *)
let publish_metrics (o : outcome) hist ~inflight_peak =
  if Metrics.on () then begin
    let labels = [ ("model", o.model_name) ] in
    Metrics.inc ~labels ~by:o.total_requests "httpsim_requests_total";
    Metrics.inc ~labels ~by:o.completed "httpsim_completed_total";
    Metrics.inc ~labels ~by:o.errors "httpsim_errors_total";
    Metrics.inc ~labels ~by:o.timeouts "httpsim_timeouts_total";
    Metrics.inc ~labels ~by:o.retries "httpsim_retries_total";
    Metrics.inc ~labels ~by:o.shed "httpsim_shed_total";
    Metrics.inc ~labels ~by:o.malformed "httpsim_malformed_total";
    Metrics.inc ~labels ~by:o.server_errors "httpsim_server_errors_total";
    Metrics.inc ~labels ~by:o.gc_pauses "httpsim_gc_pauses_total";
    Metrics.inc ~labels ~by:o.faults.injected "httpsim_faults_injected_total";
    let disposition kind n =
      Metrics.inc
        ~labels:(("disposition", kind) :: labels)
        ~by:n "httpsim_fault_dispositions_total"
    in
    disposition "malformed" o.faults.to_malformed;
    disposition "retried" o.faults.to_retried;
    disposition "timeout" o.faults.to_timeout;
    disposition "server_error" o.faults.to_server_error;
    disposition "absorbed" o.faults.to_absorbed;
    Metrics.observe_histogram ~labels "httpsim_latency_ns" hist;
    Metrics.set_gauge ~labels "httpsim_inflight_peak" inflight_peak
  end

(* ------------------------------------------------------------------ *)
(* The engine: a virtual single CPU serving attempts FIFO in time
   order, with per-request deadlines, client retries and admission
   control layered on top.

   Request dispositions are exclusive: every request ends exactly once
   as completed (200 within deadline), malformed (its damaged bytes
   earned a 4xx — terminal, a real client does not retry its "own"
   bad request), or timed out (deadline expired or retry budget
   exhausted).  shed / server_errors / retries are event counts layered
   on top (one per 503, per 500, per retry attempt).

   Fault accounting is also exclusive: each injected fault is
   attributed exactly once, at the resolution of the attempt that
   carried it — to_malformed (wire damage), to_retried (drop recovered
   by a retry), to_timeout (it killed the request), to_server_error
   (the 500 happened), or to_absorbed (the resilience layer masked it
   entirely).  [injected = sum of the five] is a tested invariant. *)

type attempt = {
  req : int;  (* request id: index in the fault plan's arrival order *)
  attempt_no : int;
  conn : int;
  orig_arrival : int;
  deadline : int;
  clean_raw : string;
  sent_raw : string;
  fault : Faults.fault option;
}

(* The client connections the trace is spread over, as in the paper. *)
let connections = 1000

let run ?(seed = 42) ?faults ?queue_cap ~model ~process ~rate_rps ~duration_ms () =
  let policy = if Option.is_some faults then default_resilience else lenient_resilience in
  let resilience =
    match queue_cap with Some queue_cap -> { policy with queue_cap } | None -> policy
  in
  let rates = Option.value faults ~default:Faults.none in
  let rng = Rng.create seed in
  let plan =
    Faults.plan ~seed ~rates
      (Netsim.poisson_rate ~rng ~connections ~rate_rps ~duration_ms ~target:"/" ())
  in
  let retry_rng = Rng.create (seed lxor 0x2545F491) in
  let total_requests = List.length plan in
  let injected = Faults.injected_count plan in
  (* Every fault is tagged onto the trace before the first attempt is
     served. *)
  if Trace.on () then
    List.iter
      (fun (inj : Faults.injected) ->
        match inj.fault with
        | Some f ->
            Trace.emit ~ts:inj.event.arrival_ns
              (Tev.Fault_injected
                 { conn = inj.event.conn_id; kind = Faults.fault_label f })
        | None -> ())
      plan;
  (* Stalled first attempts and retries wait here; first attempts
     without a stall are served straight from the plan (see [stream]). *)
  let q : attempt Pqueue.t = Pqueue.create () in
  let hist = Histogram.create ~max_value:60_000_000_000 () in
  let cpu_free = ref 0 in
  let alloc_since_gc = ref 0 in
  let gc_pauses = ref 0 in
  let completed = ref 0 in
  let last_completion = ref 0 in
  let timeouts = ref 0 in
  let retries = ref 0 in
  let shed = ref 0 in
  let malformed = ref 0 in
  let server_errors = ref 0 in
  let fa_malformed = ref 0 in
  let fa_retried = ref 0 in
  let fa_timeout = ref 0 in
  let fa_server_error = ref 0 in
  let fa_absorbed = ref 0 in
  (* Finish times of admitted-but-unfinished requests; arrivals are
     processed in time order, so pruning entries at or before "now"
     leaves exactly the virtual queue depth. *)
  let in_flight : int Queue.t = Queue.create () in
  let max_inflight = ref 0 in
  let rec prune now =
    if (not (Queue.is_empty in_flight)) && Queue.peek in_flight <= now then begin
      ignore (Queue.take in_flight);
      prune now
    end
  in
  (* Client-side retry with exponential backoff and jitter, capped by
     both the attempt budget and the request deadline. *)
  let schedule_retry ~now a =
    if a.attempt_no >= resilience.max_attempts then false
    else begin
      let backoff =
        (resilience.backoff_base_ns * (1 lsl (a.attempt_no - 1)))
        + (if resilience.backoff_jitter_ns > 0 then
             Rng.int retry_rng (resilience.backoff_jitter_ns + 1)
           else 0)
      in
      let t = now + backoff in
      if t > a.deadline then false
      else begin
        incr retries;
        if Trace.on () then begin
          Trace.emit ~ts:t (Tev.Retry { conn = a.conn; attempt = a.attempt_no + 1 });
          (* the client sat out [now, t] before resending *)
          Trace.emit ~ts:t
            (Tev.Req_backoff
               { req = a.req; attempt = a.attempt_no + 1; dur = backoff })
        end;
        (* Retries resend the pristine bytes: the fault was on the wire,
           not in the request. *)
        Pqueue.add q ~priority:((2 * t) + 1)
          { a with attempt_no = a.attempt_no + 1; sent_raw = a.clean_raw; fault = None };
        true
      end
    end
  in
  (* Attribute an attempt's fault (if any) when the attempt resolves
     without reaching the service path. *)
  let account_shed_or_408 ~is_408 a =
    match a.fault with
    | Some (Faults.Truncate _ | Faults.Corrupt _) -> incr fa_malformed
    | Some (Faults.Stall _) -> if is_408 then incr fa_timeout else incr fa_absorbed
    | Some (Faults.Backend_slow _ | Faults.Backend_fail) -> incr fa_absorbed
    | Some Faults.Drop -> assert false
    | None -> ()
  in
  (* Terminal-resolution marker: every request emits exactly one. *)
  let done_ev ~ts a disposition =
    if Trace.on () then Trace.emit ~ts (Tev.Req_done { req = a.req; disposition })
  in
  let process_attempt now a =
    prune now;
    let depth = Queue.length in_flight in
    if depth > !max_inflight then max_inflight := depth;
    if Trace.on () then begin
      Trace.emit ~ts:now (Tev.Req_enqueue { req = a.req; attempt = a.attempt_no });
      Trace.emit ~ts:now (Tev.Inflight_depth { depth })
    end;
    if depth >= resilience.queue_cap then begin
      (* Admission control: shed to 503 for the cost of the dispatch
         alone — the queue never grows past the cap. *)
      incr shed;
      let start = max now !cpu_free in
      let finish = start + model.Server.dispatch_overhead_ns in
      cpu_free := finish;
      Queue.push finish in_flight;
      if Trace.on () then begin
        Trace.emit ~ts:finish (Tev.Shed { conn = a.conn });
        Trace.emit ~ts:finish
          (Tev.Request
             {
               req = a.req;
               conn = a.conn;
               attempt = a.attempt_no;
               status = 503;
               start;
               finish;
             })
      end;
      account_shed_or_408 ~is_408:false a;
      if not (schedule_retry ~now:finish a) then begin
        incr timeouts;
        done_ev ~ts:finish a "timeout"
      end
    end
    else begin
      let start = max now !cpu_free in
      if start > a.deadline then begin
        (* Deadline propagation: the deadline expired before service
           start, so answer 408 without paying service_ns. *)
        incr timeouts;
        let finish = start + model.Server.dispatch_overhead_ns in
        cpu_free := finish;
        Queue.push finish in_flight;
        if Trace.on () then
          Trace.emit ~ts:finish
            (Tev.Request
               {
                 req = a.req;
                 conn = a.conn;
                 attempt = a.attempt_no;
                 status = 408;
                 start;
                 finish;
               });
        done_ev ~ts:finish a "timeout";
        account_shed_or_408 ~is_408:true a
      end
      else begin
        (* Really execute the (crash-barriered) server code path. *)
        let reply = process a.sent_raw in
        let status =
          match Http.response_status reply with Ok s -> s | Error _ -> 500
        in
        (* Stop-the-world GC pauses are driven by the machinery's
           allocation rate. *)
        alloc_since_gc := !alloc_since_gc + model.Server.alloc_per_request;
        let gc_pause =
          if !alloc_since_gc >= model.Server.gc_threshold then begin
            alloc_since_gc := 0;
            incr gc_pauses;
            model.Server.gc_pause_ns
          end
          else 0
        in
        (* Exponential service-time variance models cache misses and
           allocator noise; the occasional slow request models
           page-cache misses on the served file. *)
        let noise =
          int_of_float
            (Rng.exponential rng ~mean:(float_of_int model.Server.service_ns /. 5.0))
          + (if Rng.int rng 100 = 0 then model.Server.service_ns else 0)
        in
        let extra =
          match a.fault with Some (Faults.Backend_slow d) -> d | _ -> 0
        in
        let service_part =
          match status with
          | 200 -> model.Server.service_ns + extra + noise
          | _ -> 0 (* 4xx rejected at parse; 500 fails fast *)
        in
        let cost =
          model.Server.dispatch_overhead_ns + model.Server.parse_ns + service_part
          + gc_pause
        in
        let finish = start + cost in
        cpu_free := finish;
        Queue.push finish in_flight;
        last_completion := max !last_completion finish;
        if Trace.on () then begin
          if gc_pause > 0 then
            Trace.emit ~ts:(start + gc_pause)
              (Tev.Gc_pause { start; dur = gc_pause });
          if status = 200 && extra > 0 then
            (* the Backend_slow surcharge tail [finish - extra, finish] *)
            Trace.emit ~ts:finish
              (Tev.Req_fault_slow { req = a.req; attempt = a.attempt_no; dur = extra });
          Trace.emit ~ts:finish
            (Tev.Request
               {
                 req = a.req;
                 conn = a.conn;
                 attempt = a.attempt_no;
                 status;
                 start;
                 finish;
               })
        end;
        if status = 200 then
          if finish <= a.deadline then begin
            incr completed;
            Histogram.record hist (finish - a.orig_arrival);
            done_ev ~ts:finish a "ok";
            match a.fault with
            | Some (Faults.Stall _ | Faults.Backend_slow _) -> incr fa_absorbed
            | Some _ -> assert false
            | None -> ()
          end
          else begin
            (* The reply came back after the client stopped waiting. *)
            incr timeouts;
            done_ev ~ts:finish a "timeout";
            match a.fault with
            | Some (Faults.Stall _ | Faults.Backend_slow _) -> incr fa_timeout
            | Some _ -> assert false
            | None -> ()
          end
        else if status = 500 then begin
          incr server_errors;
          (match a.fault with
          | Some Faults.Backend_fail -> incr fa_server_error
          | Some _ -> assert false
          | None -> ());
          if not (schedule_retry ~now:finish a) then begin
            incr timeouts;
            done_ev ~ts:finish a "timeout"
          end
        end
        else begin
          (* 4xx: only damaged bytes produce these in this workload. *)
          incr malformed;
          done_ev ~ts:finish a "malformed";
          match a.fault with
          | Some (Faults.Truncate _ | Faults.Corrupt _) -> incr fa_malformed
          | Some _ -> assert false
          | None -> ()
        end
      end
    end
  in
  let serve now a =
    (* Lifecycle markers are emitted here, when the attempt is served,
       rather than when the plan is built: ring order then keeps each
       request's span openings next to its other events, so an
       undersized ring truncates whole requests instead of evicting
       every arrival first.  Timestamps are still the true instants: a
       first attempt is served at arrival + wire stall. *)
    if Trace.on () && a.attempt_no = 1 then begin
      Trace.emit ~ts:a.orig_arrival (Tev.Req_arrival { req = a.req; conn = a.conn });
      if now > a.orig_arrival then
        Trace.emit ~ts:now (Tev.Req_stall { req = a.req; dur = now - a.orig_arrival })
    end;
    match a.fault with
    | Some Faults.Drop ->
        (* The connection died on the wire; the client notices after
           its detection delay and retries. *)
        let detect = now + resilience.drop_detect_ns in
        if Trace.on () then
          Trace.emit ~ts:detect
            (Tev.Req_drop
               { req = a.req; attempt = a.attempt_no; dur = resilience.drop_detect_ns });
        if schedule_retry ~now:detect a then incr fa_retried
        else begin
          incr timeouts;
          incr fa_timeout;
          done_ev ~ts:detect a "timeout"
        end
    | _ -> process_attempt now a
  in
  (* Service order.  Attempts are served in time order.  At equal
     times a stalled first attempt goes first, then an unstalled first
     attempt, then a retry; within each kind, in the order they were
     queued (request order for first attempts).  A stalled attempt due
     at an unstalled one's arrival always has the lower request index,
     since stalls are at least 100 µs and arrivals never go backwards.

     The queue keys encode the rule: [2t] for a stalled first attempt
     due at [t], [2t + 1] for a retry due at [t].  Before the next
     unstalled arrival at [t'] is served, every queued attempt with a
     key of at most [2t'] is: stalled ones due at or before [t'],
     retries due strictly before it.  A stalled first attempt is queued
     when the stream reaches it, before any later-due attempt runs. *)
  let rec serve_queued limit =
    if (not (Pqueue.is_empty q)) && Pqueue.min_priority q <= limit then begin
      let key = Pqueue.min_priority q in
      serve (key asr 1) (Pqueue.take q);
      serve_queued limit
    end
  in
  let rec stream req = function
    | [] -> serve_queued max_int
    | (inj : Faults.injected) :: rest ->
        let ev = inj.event in
        let a =
          {
            req;
            attempt_no = 1;
            conn = ev.conn_id;
            orig_arrival = ev.arrival_ns;
            deadline = ev.arrival_ns + resilience.deadline_ns;
            clean_raw = ev.raw;
            sent_raw =
              (match inj.fault with Some f -> Faults.damaged_raw ev.raw f | None -> ev.raw);
            fault = inj.fault;
          }
        in
        (match inj.fault with
        | Some (Faults.Stall d) -> Pqueue.add q ~priority:(2 * (ev.arrival_ns + d)) a
        | _ ->
            serve_queued (2 * ev.arrival_ns);
            serve ev.arrival_ns a);
        stream (req + 1) rest
  in
  stream 0 plan;
  let span_ns = max 1 !last_completion in
  let out =
    {
      model_name = model.Server.name;
      offered_rps = rate_rps;
      achieved_rps = float_of_int !completed *. 1e9 /. float_of_int span_ns;
      total_requests;
      completed = !completed;
      errors = !timeouts + !malformed;
      timeouts = !timeouts;
      retries = !retries;
      shed = !shed;
      malformed = !malformed;
      server_errors = !server_errors;
      faults =
        {
          injected;
          to_malformed = !fa_malformed;
          to_retried = !fa_retried;
          to_timeout = !fa_timeout;
          to_server_error = !fa_server_error;
          to_absorbed = !fa_absorbed;
        };
      gc_pauses = !gc_pauses;
      mean_ns = Histogram.mean hist;
      p50_ns = Histogram.value_at_percentile hist 50.0;
      p90_ns = Histogram.value_at_percentile hist 90.0;
      p99_ns = Histogram.value_at_percentile hist 99.0;
      p999_ns = Histogram.value_at_percentile hist 99.9;
      max_ns = Histogram.max_recorded hist;
    }
  in
  publish_metrics out hist ~inflight_peak:!max_inflight;
  out
