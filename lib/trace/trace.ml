(* The runtime eventlog: a fixed-capacity ring buffer of typed events
   behind a single static flag.

   Disabled (the default) the whole subsystem is one branch: [on ()]
   reads a bool ref, every instrumentation site is written
   [if Trace.on () then Trace.emit ...], and nothing allocates, so the
   frozen counter tables and pinned benchmark outputs are bit-identical
   with tracing compiled in.  Enabled, events go into a pre-allocated
   circular buffer; when it fills, the oldest events are overwritten
   (drop-oldest) and the loss is counted — both locally and, when the
   metrics registry is live, as the [trace_dropped_events] counter.

   Timestamps are virtual: sites either pass [~ts] from their own
   virtual time base, or default to the process-wide [Vclock]. *)

module Vclock = Retrofit_util.Vclock
module Metrics = Retrofit_metrics.Metrics

type t = {
  buf : Event.t array;
  capacity : int;
  mutable first : int; (* index of the oldest live event *)
  mutable len : int;
  mutable dropped : int;
}

let null_event = { Event.ts = 0; ev = Event.Mark { name = "" } }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity null_event; capacity; first = 0; len = 0; dropped = 0 }

let length t = t.len

let dropped t = t.dropped

let capacity t = t.capacity

let add t e =
  if t.len < t.capacity then begin
    t.buf.((t.first + t.len) mod t.capacity) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* full: overwrite the oldest slot and advance the window *)
    t.buf.(t.first) <- e;
    t.first <- (t.first + 1) mod t.capacity;
    t.dropped <- t.dropped + 1;
    if Metrics.on () then Metrics.inc "trace_dropped_events"
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.first + i) mod t.capacity)
  done

let to_list t =
  let out = ref [] in
  iter t (fun e -> out := e :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The process-wide session *)

let enabled = ref false

let current : t option ref = ref None

let on () = !enabled

let default_capacity = 1 lsl 16

let start ?(capacity = default_capacity) () =
  let t = create ~capacity in
  current := Some t;
  enabled := true;
  t

let stop () =
  enabled := false;
  let t = !current in
  current := None;
  t

(* Trace for the duration of [f]; returns (result, eventlog).  Restores
   whatever session was live before, so scopes nest safely. *)
let scoped ?capacity f =
  let saved_enabled = !enabled and saved = !current in
  let t = start ?capacity () in
  let restore () =
    enabled := saved_enabled;
    current := saved
  in
  match f () with
  | v ->
      restore ();
      (v, t)
  | exception e ->
      restore ();
      raise e

let emit ?ts ev =
  match !current with
  | None -> ()
  | Some t ->
      let ts = match ts with Some x -> x | None -> Vclock.now () in
      add t { Event.ts; ev }

let events () = match !current with Some t -> to_list t | None -> []
