module Machine = Retrofit_fiber.Machine
module Counter = Retrofit_util.Counter
module Metrics = Retrofit_metrics.Metrics

type t = {
  table : Table.t;
  interval : int;
  mutable next_at : int;
  stacks : (string, int) Hashtbl.t;
  mutable samples : int;
  mutable failures : int;
  mutable boundary_samples : int;
  mutable wait_samples : int;
}

let create ?(interval = 1_000) table =
  if interval <= 0 then invalid_arg "Profile.create: interval must be positive";
  {
    table;
    interval;
    next_at = interval;
    stacks = Hashtbl.create 64;
    samples = 0;
    failures = 0;
    boundary_samples = 0;
    wait_samples = 0;
  }

let interval t = t.interval

let entry_name = function
  | Unwind.Frame { fn; _ } -> fn
  | Unwind.C_boundary -> "<C>"
  | Unwind.Fiber_boundary _ -> "<fiber>"
  | Unwind.Main_end -> "<main>"
  | Unwind.Captured_end -> "<captured>"

let crosses_fiber_boundary entries =
  List.exists (function Unwind.Fiber_boundary _ -> true | _ -> false) entries

(* The unwinder reports innermost-first; folded stacks are root-first,
   so a single rev_map both renames and reorders. *)
let fold_entries entries = String.concat ";" (List.rev_map entry_name entries)

let sample t m =
  t.samples <- t.samples + 1;
  match Unwind.backtrace t.table m with
  | entries ->
      if crosses_fiber_boundary entries then
        t.boundary_samples <- t.boundary_samples + 1;
      let key = fold_entries entries in
      let n = match Hashtbl.find_opt t.stacks key with Some n -> n | None -> 0 in
      Hashtbl.replace t.stacks key (n + 1)
  | exception Unwind.Unwind_error _ -> t.failures <- t.failures + 1

let on_step t m =
  let now = Counter.value (Machine.counters m) Counter.Instructions in
  if now >= t.next_at then begin
    (* Align the next deadline to the interval grid so a burst of
       expensive instructions costs one sample, not several, and the
       sample points are a pure function of the cost stream. *)
    t.next_at <- (((now / t.interval) + 1) * t.interval);
    sample t m
  end

let hook t = fun m -> on_step t m

(* Blocked-time samples: the scheduler's causal layer knows when fibers
   sat parked on I/O or runnable in the queue; those instants have no
   machine stack to unwind, so they fold under a synthetic
   [<sched>;<wait:KIND>] frame — speedscope then shows blocked time
   side by side with on-CPU frames instead of silently omitting it. *)
let record_wait ?(n = 1) t ~kind =
  if n > 0 then begin
    t.samples <- t.samples + n;
    t.wait_samples <- t.wait_samples + n;
    let key = "<sched>;<wait:" ^ kind ^ ">" in
    let prev = match Hashtbl.find_opt t.stacks key with Some v -> v | None -> 0 in
    Hashtbl.replace t.stacks key (prev + n)
  end

let wait_samples t = t.wait_samples

let samples t = t.samples

let failures t = t.failures

let boundary_samples t = t.boundary_samples

let stacks t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.stacks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, n) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack n))
    (stacks t);
  Buffer.contents buf

let publish t =
  if Metrics.on () then begin
    Metrics.inc ~by:t.samples "profile_samples_total";
    Metrics.inc ~by:t.failures "profile_unwind_failures_total";
    Metrics.inc ~by:t.boundary_samples "profile_fiber_boundary_samples_total";
    Metrics.inc ~by:t.wait_samples "profile_wait_samples_total";
    Metrics.set_gauge "profile_distinct_stacks" (Hashtbl.length t.stacks)
  end
