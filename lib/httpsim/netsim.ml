type event = { arrival_ns : int; conn_id : int; raw : string }

let request_for ~target ~conn_id =
  Http.format_request
    {
      Http.meth = Http.GET;
      target;
      version = "HTTP/1.1";
      headers =
        [
          ("host", "bench.local");
          ("user-agent", "retrofit-loadgen");
          ("x-conn", string_of_int conn_id);
        ];
      body = "";
    }

(* The bytes of a request depend only on (target, conn_id), and strings
   are immutable, so every event of one connection shares one string.
   A fault that damages a request makes a fresh copy
   ([Faults.damaged_raw]). *)
let shared_requests ~connections ~target =
  Array.init connections (fun conn_id -> request_for ~target ~conn_id)

let check_params ~connections ~rate_rps ~duration_ms =
  if connections <= 0 then invalid_arg "Netsim: connections";
  if rate_rps <= 0 then invalid_arg "Netsim: rate";
  if duration_ms < 0 then invalid_arg "Netsim: duration"

let poisson_rate ~rng ~connections ~rate_rps ~duration_ms ~target () =
  check_params ~connections ~rate_rps ~duration_ms;
  let mean_interval = 1e9 /. float_of_int rate_rps in
  let horizon = duration_ms * 1_000_000 in
  let raws = shared_requests ~connections ~target in
  let rec go now i acc =
    let gap = Retrofit_util.Rng.exponential rng ~mean:mean_interval in
    let now = now +. gap in
    if int_of_float now >= horizon then List.rev acc
    else begin
      let conn_id = i mod connections in
      let ev =
        { arrival_ns = int_of_float now; conn_id; raw = raws.(conn_id) }
      in
      go now (i + 1) (ev :: acc)
    end
  in
  go 0.0 0 []

let constant_rate ?(jitter_ns = 0) ~rng ~connections ~rate_rps ~duration_ms ~target () =
  if connections <= 0 then invalid_arg "Netsim.constant_rate: connections";
  if rate_rps <= 0 then invalid_arg "Netsim.constant_rate: rate";
  if duration_ms < 0 then invalid_arg "Netsim.constant_rate: duration";
  let interval_ns = 1_000_000_000 / rate_rps in
  let total = rate_rps * duration_ms / 1000 in
  let raws = shared_requests ~connections ~target in
  let events =
    List.init total (fun i ->
        let jitter =
          if jitter_ns > 0 then Retrofit_util.Rng.int rng (jitter_ns + 1) else 0
        in
        let conn_id = i mod connections in
        {
          arrival_ns = (i * interval_ns) + jitter;
          conn_id;
          raw = raws.(conn_id);
        })
  in
  (* Jitter larger than the nominal interval can reorder neighbouring
     events; Loadgen queues FIFO by arrival, so deliver the trace in
     non-decreasing arrival order (stable, to keep equal-instant events
     in issue order). *)
  List.stable_sort (fun a b -> Int.compare a.arrival_ns b.arrival_ns) events
