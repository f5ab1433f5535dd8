module Pqueue = Retrofit_util.Pqueue

type t = { events : (unit -> unit) Pqueue.t; mutable clock : int }

let create () = { events = Pqueue.create (); clock = 0 }

let now t = t.clock

let at t ~time callback =
  let time = max time t.clock in
  Pqueue.add t.events ~priority:time callback

let after t ~delay callback =
  if delay < 0 then invalid_arg "Evloop.after: negative delay";
  at t ~time:(t.clock + delay) callback

let pending t = Pqueue.length t.events

let next_event_time t =
  if Pqueue.is_empty t.events then None else Some (Pqueue.min_priority t.events)

let advance_once t =
  let q = t.events in
  if Pqueue.is_empty q then false
  else begin
    t.clock <- max t.clock (Pqueue.min_priority q);
    Pqueue.take q ();
    (* run everything scheduled for the same instant *)
    while (not (Pqueue.is_empty q)) && Pqueue.min_priority q <= t.clock do
      Pqueue.take q ()
    done;
    true
  end

let advance_until t cond =
  let rec go () = if cond () then true else if advance_once t then go () else cond () in
  go ()

let drain t = while advance_once t do () done
