(* Where does request time go, and how does the answer move?

   Sweeps the resilient websim over fault intensity x admission-queue
   cap with tracing on, reconstructs the span graph of every cell, and
   tabulates the five attribution buckets as shares of total latency.
   The interesting shape: raising fault intensity shifts time from
   running into fault_stall and io_wait (backoff), while tightening the
   queue cap converts sched_wait into retries and sheds.  Everything is
   seeded, so the table is byte-stable. *)

module HS = Retrofit_httpsim
module Trace = Retrofit_trace.Trace
module Causal = Retrofit_causal
module Table = Retrofit_util.Table

type cell = {
  c_intensity : float;
  c_cap : int;
  c_outcome : HS.Loadgen.outcome;
  c_graph : Causal.Graph.t;
}

let rate_rps = 20_000

let run_cell ~duration_ms ~intensity ~queue_cap =
  let faults = HS.Faults.scale intensity HS.Faults.default in
  let outcome, ring =
    Trace.scoped ~capacity:(1 lsl 18) (fun () ->
        HS.Loadgen.run ~seed:42 ~faults ~queue_cap ~model:HS.Server.mc
          ~process:HS.Server_effects.process_raw ~rate_rps ~duration_ms ())
  in
  {
    c_intensity = intensity;
    c_cap = queue_cap;
    c_outcome = outcome;
    c_graph = Causal.Reconstruct.of_trace ring;
  }

(* Fault intensities 0, 0.5 and 2 times [Faults.default], each with
   admission-queue caps of 64 and 512. *)
let sweep ~duration_ms =
  List.concat_map
    (fun intensity ->
      List.map
        (fun queue_cap -> run_cell ~duration_ms ~intensity ~queue_cap)
        [ 64; 512 ])
    [ 0.0; 0.5; 2.0 ]

let share total part = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let row (c : cell) =
  let g = c.c_graph in
  let open Causal.Graph in
  let fold f = List.fold_left (fun acc r -> acc + f r.r_buckets) 0 g.requests in
  let lat = List.fold_left (fun acc r -> acc + latency r) 0 g.requests in
  [
    Printf.sprintf "%.1fx" c.c_intensity;
    string_of_int c.c_cap;
    string_of_int g.summary.g_requests;
    string_of_int g.summary.g_complete;
    string_of_int g.summary.g_incomplete;
    Printf.sprintf "%.1f" (share lat (fold (fun b -> b.b_running)));
    Printf.sprintf "%.1f" (share lat (fold (fun b -> b.b_sched)));
    Printf.sprintf "%.1f" (share lat (fold (fun b -> b.b_io)));
    Printf.sprintf "%.1f" (share lat (fold (fun b -> b.b_gc)));
    Printf.sprintf "%.1f" (share lat (fold (fun b -> b.b_fault)));
    string_of_int c.c_outcome.HS.Loadgen.completed;
    string_of_int c.c_outcome.HS.Loadgen.timeouts;
    string_of_int c.c_outcome.HS.Loadgen.shed;
  ]

let report ?(quick = false) () =
  let duration_ms = if quick then 150 else 500 in
  let cells = sweep ~duration_ms in
  let header =
    [
      "faults"; "cap"; "reqs"; "complete"; "incompl"; "run%"; "sched%"; "io%";
      "gc%"; "fault%"; "ok"; "timeout"; "shed";
    ]
  in
  let align = Table.Left :: List.map (fun _ -> Table.Right) (List.tl header) in
  let exact =
    List.for_all
      (fun c ->
        List.for_all
          (fun r -> Causal.Graph.(buckets_sum r.r_buckets = latency r))
          c.c_graph.Causal.Graph.requests)
      cells
  in
  Printf.sprintf
    "Causal attribution sweep (mc model, %d req/s, %d ms): latency bucket \
     shares vs fault intensity x queue cap\n\n\
     %s\n\
     attribution invariant (buckets sum to latency, every complete request, \
     every cell): %s\n"
    rate_rps duration_ms
    (Table.render ~align ~header (List.map row cells))
    (if exact then "holds" else "VIOLATED")
