module Rng = Retrofit_util.Rng

type rates = {
  truncate : float;
  corrupt : float;
  drop : float;
  stall : float;
  backend_slow : float;
  backend_fail : float;
}

let none =
  {
    truncate = 0.0;
    corrupt = 0.0;
    drop = 0.0;
    stall = 0.0;
    backend_slow = 0.0;
    backend_fail = 0.0;
  }

let default =
  {
    truncate = 0.004;
    corrupt = 0.004;
    drop = 0.010;
    stall = 0.010;
    backend_slow = 0.010;
    backend_fail = 0.005;
  }

let scale f r =
  if f < 0.0 then invalid_arg "Faults.scale: negative factor";
  {
    truncate = r.truncate *. f;
    corrupt = r.corrupt *. f;
    drop = r.drop *. f;
    stall = r.stall *. f;
    backend_slow = r.backend_slow *. f;
    backend_fail = r.backend_fail *. f;
  }

let total r =
  r.truncate +. r.corrupt +. r.drop +. r.stall +. r.backend_slow +. r.backend_fail

type fault =
  | Truncate of int
  | Corrupt of int
  | Drop
  | Stall of int
  | Backend_slow of int
  | Backend_fail

type injected = { event : Netsim.event; fault : fault option }

let fault_label = function
  | Truncate _ -> "truncate"
  | Corrupt _ -> "corrupt"
  | Drop -> "drop"
  | Stall _ -> "stall"
  | Backend_slow _ -> "backend_slow"
  | Backend_fail -> "backend_fail"

(* Perturbation magnitudes (virtual ns).  Stalls model a slow client
   dribbling its request bytes; slow-downs model a backend latency
   spike.  Both are uniform over a band so the tail is bounded and the
   sweep stays interpretable. *)
let stall_min_ns = 100_000

let stall_span_ns = 1_900_001 (* up to ~2 ms *)

let slow_min_ns = 200_000

let slow_span_ns = 800_001 (* up to 1 ms *)

let check_rates r =
  let each =
    [ r.truncate; r.corrupt; r.drop; r.stall; r.backend_slow; r.backend_fail ]
  in
  if List.exists (fun x -> x < 0.0 || not (Float.is_finite x)) each then
    invalid_arg "Faults.plan: negative or non-finite rate";
  if total r > 1.0 then invalid_arg "Faults.plan: rates sum past 1"

(* One uniform draw per event decides the fault category (cumulative
   bands over [0,1)); the parameters of the chosen fault come from
   subsequent draws of the same stream.  Everything is a pure function
   of (seed, rates, trace), so a plan is exactly reproducible. *)
let plan ~seed ~rates events =
  check_rates rates;
  let rng = Rng.create (seed lxor 0x5DEECE66) in
  List.map
    (fun (ev : Netsim.event) ->
      let u = Rng.float rng 1.0 in
      let t = rates.truncate in
      let c = t +. rates.corrupt in
      let d = c +. rates.drop in
      let s = d +. rates.stall in
      let sl = s +. rates.backend_slow in
      let f = sl +. rates.backend_fail in
      let len = String.length ev.raw in
      let fault =
        if u < t then Some (Truncate (Rng.int rng (max 1 len)))
        else if u < c then Some (Corrupt (Rng.int rng (max 1 (min 16 len))))
        else if u < d then Some Drop
        else if u < s then Some (Stall (stall_min_ns + Rng.int rng stall_span_ns))
        else if u < sl then
          Some (Backend_slow (slow_min_ns + Rng.int rng slow_span_ns))
        else if u < f then Some Backend_fail
        else None
      in
      { event = ev; fault })
    events

let injected_count plan =
  List.fold_left (fun n i -> match i.fault with None -> n | Some _ -> n + 1) 0 plan

let damaged_raw raw fault =
  let len = String.length raw in
  match fault with
  | Truncate keep -> String.sub raw 0 (min keep len)
  | Corrupt i when i < len ->
      let b = Bytes.of_string raw in
      (* A control byte in the request line breaks tokenisation without
         ever reassembling into a valid message. *)
      Bytes.set b i '\x1f';
      Bytes.to_string b
  | Corrupt _ -> raw
  | Backend_fail -> (
      (* Tag the request so the application handler raises mid-service,
         exercising the server's crash barrier for real. *)
      match String.index_opt raw '\n' with
      | Some i ->
          String.sub raw 0 (i + 1)
          ^ Server.crash_header ^ ": crash\r\n"
          ^ String.sub raw (i + 1) (len - i - 1)
      | None -> raw)
  | Drop | Stall _ | Backend_slow _ -> raw
