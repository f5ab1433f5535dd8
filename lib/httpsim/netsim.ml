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

let poisson_rate ~rng ~connections ~rate_rps ~duration_ms ~target () =
  if connections <= 0 then invalid_arg "Netsim: connections";
  if rate_rps <= 0 then invalid_arg "Netsim: rate";
  if duration_ms < 0 then invalid_arg "Netsim: duration";
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
