module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics

type _ Effect.t +=
  | In_line : Chan.ic -> string Effect.t
  | Out_str : Chan.oc * string -> unit Effect.t

let input_line ic = Effect.perform (In_line ic)

let output_string oc s = Effect.perform (Out_str (oc, s))

(* A parked read: the channel, the continuation expecting the line, the
   owning fiber's control cell, and a liveness flag cleared when the
   read is cancelled (so the ready-scan skips it). *)
type pending =
  | Pending : {
      ic : Chan.ic;
      k : (string, unit) Effect.Deep.continuation;
      ctl : Sched.Ctl.t option;
      live : bool ref;
    }
      -> pending

type mode = Sync | Async

type timeout_status = [ `Running | `Done | `Cancelled ]

(* The scheduler's runner (FIFO, depth stamped by the loop's clock),
   serving the two I/O effects beside the scheduler effects; its idle
   hook is the do_reads of §3.1. *)
let run_mode mode loop main =
  let rq = Sched.runner_create ~clock:(fun () -> Evloop.now loop) in
  let pending_reads : pending list ref = ref [] in
  (* The event-loop clock stamps this loop's I/O depth track. *)
  let observe_pending () =
    if Trace.on () then
      Trace.emit ~ts:(Evloop.now loop)
        (Tev.Io_pending { depth = List.length !pending_reads })
  in
  let resume_read (Pending p) =
    (match p.ctl with Some c -> Sched.Ctl.clear_parked c | None -> ());
    match Chan.read_line_nonblock p.ic with
    | `Line line -> Sched.runner_continue rq "io-line" p.ctl p.k line
    | `Eof -> Sched.runner_discontinue rq "io-eof" p.ctl p.k End_of_file
    | `Not_ready -> assert false
    | exception (Sys_error _ as e) ->
        Sched.runner_discontinue rq "io-error" p.ctl p.k e
  in
  let idle () =
    pending_reads := List.filter (fun (Pending p) -> !(p.live)) !pending_reads;
    match !pending_reads with
    | [] -> false
    | todo ->
        (* Every thread is parked on I/O: advance virtual time until at
           least one read completes or a timer callback schedules work
           (e.g. a timeout firing a cancel). *)
        let progressed =
          Evloop.advance_until loop (fun () ->
              Sched.runner_length rq > 0
              || List.exists (fun (Pending p) -> !(p.live) && Chan.readable p.ic) todo)
        in
        if Sched.runner_length rq = 0 && not progressed then
          failwith "Aio: all threads blocked and no input will ever arrive";
        let ready, still =
          List.partition (fun (Pending p) -> !(p.live) && Chan.readable p.ic) todo
        in
        pending_reads := List.filter (fun (Pending p) -> !(p.live)) still;
        observe_pending ();
        List.iter resume_read ready;
        true
  in
  (* Park a read whose line is not ready yet. *)
  let park ic k =
    let ctl = Sched.runner_current rq in
    (match ctl with
    | Some c when Sched.Ctl.cancelled c ->
        Sched.runner_discontinue rq "cancel" ctl k Sched.Cancelled
    | _ ->
        let live = ref true in
        (match ctl with
        | Some c ->
            Sched.Ctl.set_parked c (fun e ->
                live := false;
                (* eager purge: drop the dead read now, so the pending
                   depth metric never counts cancelled waiters *)
                pending_reads :=
                  List.filter (fun (Pending p) -> !(p.live)) !pending_reads;
                observe_pending ();
                Sched.runner_discontinue rq "cancel" ctl k e)
        | None -> ());
        pending_reads := Pending { ic; k; ctl; live } :: !pending_reads;
        if Metrics.on () then Metrics.inc "aio_parked_reads_total";
        observe_pending ());
    Sched.runner_next rq
  in
  let effc (type c) (eff : c Effect.t) : ((c, unit) Effect.Deep.continuation -> unit) option =
    match eff with
    | In_line ic ->
        Some
          (fun (k : (c, unit) Effect.Deep.continuation) ->
            match mode with
            | Sync -> (
                match Chan.read_line_blocking ic with
                | line -> Effect.Deep.continue k line
                | exception e -> Effect.Deep.discontinue k e)
            | Async -> (
                match Chan.read_line_nonblock ic with
                | `Line line -> Effect.Deep.continue k line
                | `Eof -> Effect.Deep.discontinue k End_of_file
                | `Not_ready -> park ic k
                | exception (Sys_error _ as e) -> Effect.Deep.discontinue k e))
    | Out_str (oc, s) ->
        Some
          (fun (k : (c, unit) Effect.Deep.continuation) ->
            match Chan.write_string oc s with
            | () -> Effect.Deep.continue k ()
            | exception e -> Effect.Deep.discontinue k e)
    | _ -> Sched.runner_handle rq eff
  in
  Sched.runner_run rq
    ~handler:
      { Effect.Deep.retc = Sched.runner_retc rq; exnc = Sched.runner_exnc rq; effc }
    ~idle main

let run_sync loop main = run_mode Sync loop main

let run_async loop main = run_mode Async loop main

let timeout loop ~delay f =
  let state = ref (`Running : timeout_status) in
  let cancel =
    Sched.fork_cancellable (fun () ->
        f ();
        state := `Done)
  in
  Evloop.after loop ~delay (fun () ->
      if !state = `Running then begin
        state := `Cancelled;
        cancel ()
      end);
  fun () -> !state

(* The §3.2 example, structurally verbatim: defensive cleanup on normal
   end of input, and on any other exception — including Cancelled, which
   is how a timed-out copy releases its channels. close_* are
   idempotent. *)
let copy ic oc =
  let rec loop () =
    output_string oc (input_line ic ^ "\n");
    loop ()
  in
  try loop () with
  | End_of_file ->
      Chan.close_in ic;
      Chan.close_out oc
  | e ->
      Chan.close_in ic;
      Chan.close_out oc;
      raise e
