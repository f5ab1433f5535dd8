module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics
module Rng = Retrofit_util.Rng

type policy = Fifo | Lifo

type 'a resumer = 'a -> unit

exception Cancelled

exception Killed

exception One_shot

type chaos_config = {
  seed : int;
  kill_rate : float;
  delay_rate : float;
  max_delay : int;
  reorder_rate : float;
  spurious_rate : float;
}

(* A run-queue entry.  A resume is a [Continue] or [Discontinue] entry
   holding the continuation, what to deliver and the control cell to
   restore, not a closure over them; a [Thunk] is only built when
   tracing or metrics wrap an entry. *)
type task =
  | Idle  (* what an empty queue pops; never queued *)
  | Spurious  (* a chaos wakeup: runs the next entry *)
  | Thunk of (unit -> unit)
  | Continue : ctl option * ('a, unit) Effect.Deep.continuation * 'a -> task
  | Discontinue : ctl option * ('a, unit) Effect.Deep.continuation * exn -> task

(* Cancellation protocol (§2.3): a cancellable fiber owns a control cell
   shared between its runner and the cancel handle.  While the fiber is
   parked the cell holds its waiter (or, for a runner's own blocking
   point, a discontinue hook); cancel fires it exactly once, turning the
   suspension's resumer into a no-op. *)
and ctl = {
  mutable requested : bool;
  mutable parked : parked;
  mutable finished : bool;
  mutable killable : bool;
  mutable cleanup : (unit -> unit) option;
      (* fired exactly once when cancel strikes while this cell is
         parked (or armed for its next park): lets wait queues purge
         the dead waiter eagerly instead of leaving a no-op resumer
         behind.  Cleared on a normal resume. *)
}

and parked = Unparked | Parked : 'a waiter -> parked | Hook of (exn -> unit)

(* One suspension: the resumer closes over this record alone. *)
and 'a waiter = {
  w_rq : runner;
  w_k : ('a, unit) Effect.Deep.continuation;
  w_ctl : ctl option;
  mutable w_state : int;  (* [st_waiting], [st_resumed] or [st_cancelled] *)
}

(* The run queue is a ring of [capacity] entries, a power of two, from
   [head]: FIFO pops at the head, LIFO at the tail, both push at the
   tail. *)
and runner = {
  mutable buf : task array;
  mutable head : int;
  mutable len : int;
  lifo : bool;
  chaos : chaos option;
  clock : unit -> int;
  by_ops : bool;
      (* stamp the depth track by enqueue/dequeue count and count
         switches ({!run}), or stamp pushes by [clock] ({!Aio}) *)
  mutable ops : int;
      (* enqueue/dequeue sequence number: the deterministic time base
         that stamps this scheduler's depth track in the eventlog *)
  mutable switches : int;  (* [by_ops] only; [run] publishes it *)
  mutable current : ctl option;
      (* the control cell of the fiber currently executing; every entry
         that re-enters a fiber restores it, so nested suspensions park
         against the right cell and [retc]/[exnc] finish the right one *)
  mutable idle : unit -> bool;
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable forked : unit -> unit;
      (* a [Fork]/[Fork_cancellable] payload, from [handle] to the
         function it returns, which the runtime applies at once: the
         fork handlers are then allocated once per run, not per fork *)
  on_fork : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_fork_cancellable : ((unit -> unit, unit) Effect.Deep.continuation -> unit) option;
  on_yield : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_killable : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_unkillable : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

(* Chaos state: the rng stream, the stash of delayed resumes (parallel
   arrays in stash order: dequeues left, entry) and the counters. *)
and chaos = {
  cfg : chaos_config;
  rng : Rng.t;
  mutable ttl : int array;
  mutable stashed : task array;
  mutable n_stashed : int;
  mutable kills : int;
  mutable delays : int;
  mutable reorders : int;
  mutable spurious : int;
}

(* [w_state] values *)
let st_waiting = 0

let st_resumed = 1

let st_cancelled = 2

(* ------------------------------------------------------------------ *)
(* The ring *)

let slot rq i = (rq.head + i) land (Array.length rq.buf - 1)

let grow rq =
  let buf = Array.make (2 * Array.length rq.buf) Idle in
  for i = 0 to rq.len - 1 do
    buf.(i) <- rq.buf.(slot rq i)
  done;
  rq.buf <- buf;
  rq.head <- 0

let observe_ops rq =
  rq.ops <- rq.ops + 1;
  Trace.emit ~ts:rq.ops (Tev.Runq_depth { depth = rq.len })

let raw_push rq task =
  if rq.len = Array.length rq.buf then grow rq;
  rq.buf.(slot rq rq.len) <- task;
  rq.len <- rq.len + 1;
  if Metrics.on () then Metrics.inc "sched_runq_pushes_total";
  if Trace.on () then
    if rq.by_ops then observe_ops rq
    else Trace.emit ~ts:(rq.clock ()) (Tev.Runq_depth { depth = rq.len })

let raw_pop rq =
  if rq.len = 0 then Idle
  else begin
    let i = if rq.lifo then slot rq (rq.len - 1) else rq.head in
    let task = rq.buf.(i) in
    rq.buf.(i) <- Idle;
    if not rq.lifo then rq.head <- (rq.head + 1) land (Array.length rq.buf - 1);
    rq.len <- rq.len - 1;
    if rq.by_ops && Trace.on () then observe_ops rq;
    task
  end

(* Remove the entry [n] places behind the one [raw_pop] takes, keeping
   the others in order; the shorter side of the gap moves. *)
let pop_nth rq n =
  let n = n mod rq.len in
  let i = if rq.lifo then rq.len - 1 - n else n in
  let task = rq.buf.(slot rq i) in
  if i < rq.len - 1 - i then begin
    for j = i downto 1 do
      rq.buf.(slot rq j) <- rq.buf.(slot rq (j - 1))
    done;
    rq.buf.(rq.head) <- Idle;
    rq.head <- (rq.head + 1) land (Array.length rq.buf - 1)
  end
  else begin
    for j = i to rq.len - 2 do
      rq.buf.(slot rq j) <- rq.buf.(slot rq (j + 1))
    done;
    rq.buf.(slot rq (rq.len - 1)) <- Idle
  end;
  rq.len <- rq.len - 1;
  task

(* ------------------------------------------------------------------ *)
(* Deterministic adversarial scheduling (chaos mode).  Every decision is
   drawn from a dedicated xoshiro stream seeded by the config, at sites
   whose order is itself deterministic (the cooperative scheduler's
   enqueue/dequeue sequence), so a chaos run is a pure function of
   (workload seed, chaos seed): double runs are byte-identical and a
   failing seed shrinks like a conformance-oracle diff. *)

(* The chaos stash: push a delayed entry, age it by one dequeue, take
   its oldest entry. *)
let stash (st : chaos) ttl task =
  let n = st.n_stashed in
  if n = Array.length st.ttl then begin
    let cap = max 8 (2 * n) in
    let ttls = Array.make cap 0 and tasks = Array.make cap Idle in
    Array.blit st.ttl 0 ttls 0 n;
    Array.blit st.stashed 0 tasks 0 n;
    st.ttl <- ttls;
    st.stashed <- tasks
  end;
  st.ttl.(n) <- ttl;
  st.stashed.(n) <- task;
  st.n_stashed <- n + 1

(* Age the stash by one dequeue: entries due now rejoin the queue in
   stash order, the rest count down. *)
let age rq (st : chaos) =
  let kept = ref 0 in
  for i = 0 to st.n_stashed - 1 do
    let ttl = st.ttl.(i) and task = st.stashed.(i) in
    if ttl <= 1 then raw_push rq task
    else begin
      st.ttl.(!kept) <- ttl - 1;
      st.stashed.(!kept) <- task;
      incr kept
    end
  done;
  Array.fill st.stashed !kept (st.n_stashed - !kept) Idle;
  st.n_stashed <- !kept

(* The oldest stashed entry, whatever its count. *)
let unstash_oldest (st : chaos) =
  let task = st.stashed.(0) in
  let n = st.n_stashed - 1 in
  Array.blit st.ttl 1 st.ttl 0 n;
  Array.blit st.stashed 1 st.stashed 0 n;
  st.stashed.(n) <- Idle;
  st.n_stashed <- n;
  task

let hit (st : chaos) rate = rate > 0.0 && Rng.float st.rng 1.0 < rate

let inject kind =
  if Metrics.on () then
    Metrics.inc "sched_chaos_injections_total" ~labels:[ ("kind", kind) ];
  if Trace.on () then Trace.emit ~ts:0 (Tev.Chaos_inject { kind })

(* A push may be stashed (delayed resume) or doubled with a spurious
   wakeup.  Spurious wakeups are raw queue entries that keep the drain
   chain alive (a bare no-op would stall the runner). *)
let chaos_push rq st task =
  (if hit st st.cfg.delay_rate then begin
     st.delays <- st.delays + 1;
     inject "delay";
     stash st (1 + Rng.int st.rng st.cfg.max_delay) task
   end
   else raw_push rq task);
  if hit st st.cfg.spurious_rate then begin
    st.spurious <- st.spurious + 1;
    inject "spurious";
    raw_push rq Spurious
  end

(* A pop may dequeue an adversarial position. *)
let chaos_pop rq st =
  if st.n_stashed > 0 then age rq st;
  let d = rq.len in
  if d = 0 then
    (* never strand a stashed resume: if the queue ran dry, the
       oldest delayed entry runs now regardless of its count *)
    if st.n_stashed > 0 then unstash_oldest st else Idle
  else if d > 1 && hit st st.cfg.reorder_rate then begin
    st.reorders <- st.reorders + 1;
    inject "reorder";
    pop_nth rq (1 + Rng.int st.rng (d - 1))
  end
  else raw_pop rq

(* Seeded kill: fires only for fibers that opted in via [set_killable],
   and only at a suspension point, where discontinuing is always
   legal. *)
let draw_kill rq ctl =
  match (rq.chaos, ctl) with
  | Some st, Some c when c.killable && (not c.requested) && not c.finished ->
      if hit st st.cfg.kill_rate then begin
        st.kills <- st.kills + 1;
        inject "kill";
        if Metrics.on () then Metrics.inc "sched_chaos_kills_total";
        true
      end
      else false
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Running entries *)

let pop rq = match rq.chaos with None -> raw_pop rq | Some st -> chaos_pop rq st

let rec run_next rq =
  match pop rq with
  | Idle -> if rq.idle () then run_next rq
  | task ->
      if rq.by_ops then begin
        rq.switches <- rq.switches + 1;
        if Metrics.on () then Metrics.inc "sched_switches_total"
      end;
      run_task rq task

and run_task rq = function
  | Idle -> ()
  | Spurious -> run_next rq
  | Thunk f -> f ()
  | Continue (ctl, k, v) ->
      rq.current <- ctl;
      Effect.Deep.continue k v
  | Discontinue (ctl, k, e) ->
      rq.current <- ctl;
      Effect.Deep.discontinue k e

(* Runnable-wait instrumentation sits {e above} the chaos layer: a resume
   stashed by the chaos delay fault is still runnable the whole time, so
   its stash duration counts as scheduler wait.  Chaos's own spurious
   wakeups go underneath and are never tagged.  With tracing and metrics
   both off the entry is queued as it is: no clock reads, no closure. *)
let push rq reason task =
  let task =
    if Trace.on () || Metrics.on () then begin
      let t0 = rq.clock () in
      Thunk
        (fun () ->
          let w = rq.clock () - t0 in
          let w = if w < 0 then 0 else w in
          if Metrics.on () then
            Metrics.observe ~max_value:1_000_000_000 "scheduler_runnable_wait_ns" w;
          if Trace.on () then
            Trace.emit ~ts:(rq.clock ()) (Tev.Wakeup { reason; wait_ns = w });
          run_task rq task)
    end
    else task
  in
  match rq.chaos with None -> raw_push rq task | Some st -> chaos_push rq st task

(* ------------------------------------------------------------------ *)
(* Control cells *)

let run_cleanup t =
  match t.cleanup with
  | Some f ->
      t.cleanup <- None;
      f ()
  | None -> ()

let cancel t =
  if (not t.finished) && not t.requested then begin
    t.requested <- true;
    run_cleanup t;
    match t.parked with
    | Unparked -> ()
    | Parked w ->
        t.parked <- Unparked;
        w.w_state <- st_cancelled;
        push w.w_rq "wakeup" (Discontinue (w.w_ctl, w.w_k, Cancelled))
    | Hook d ->
        t.parked <- Unparked;
        d Cancelled
  end

(* Wire one suspension point: the waiter, parked on the cell if there is
   one, and its resumer, which enqueues the resume on first use, raises
   [One_shot] on a second, and is a no-op once the suspension has been
   cancelled. *)
let arm rq ctl k =
  let w = { w_rq = rq; w_k = k; w_ctl = ctl; w_state = st_waiting } in
  (match ctl with Some c -> c.parked <- Parked w | None -> ());
  fun v ->
    if w.w_state = st_waiting then begin
      w.w_state <- st_resumed;
      (match w.w_ctl with
      | Some c ->
          c.parked <- Unparked;
          c.cleanup <- None
      | None -> ());
      push w.w_rq "wakeup" (Continue (w.w_ctl, w.w_k, v))
    end
    else if w.w_state = st_resumed then raise One_shot

module Ctl = struct
  type t = ctl

  let create () =
    {
      requested = false;
      parked = Unparked;
      finished = false;
      killable = false;
      cleanup = None;
    }

  let finish t = t.finished <- true

  let cancelled t = t.requested

  let set_parked t d = t.parked <- Hook d

  let clear_parked t = t.parked <- Unparked

  let cancel = cancel

  let arm = arm
end

module Chaos = struct
  type t = chaos_config = {
    seed : int;
    kill_rate : float;
    delay_rate : float;
    max_delay : int;
    reorder_rate : float;
    spurious_rate : float;
  }

  let default ~seed =
    {
      seed;
      kill_rate = 0.002;
      delay_rate = 0.05;
      max_delay = 4;
      reorder_rate = 0.1;
      spurious_rate = 0.02;
    }

  type stats = { kills : int; delays : int; reorders : int; spurious : int }

  type state = chaos

  let latest : state option ref = ref None

  let fresh cfg =
    {
      cfg;
      rng = Rng.create cfg.seed;
      ttl = [||];
      stashed = [||];
      n_stashed = 0;
      kills = 0;
      delays = 0;
      reorders = 0;
      spurious = 0;
    }

  (* The newest state is the one [chaos_stats] reports. *)
  let register st = latest := Some st

  let make cfg =
    let st = fresh cfg in
    register st;
    st

  let snapshot (st : state) =
    { kills = st.kills; delays = st.delays; reorders = st.reorders; spurious = st.spurious }
end

let chaos_stats () = Option.map Chaos.snapshot !Chaos.latest

type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Fork_cancellable : (unit -> unit) -> (unit -> unit) Effect.t
  | Set_killable : bool -> unit Effect.t
  | Park : ('a resumer -> unit -> unit) -> 'a Effect.t

let fork f = Effect.perform (Fork f)

let fork_cancellable f = Effect.perform (Fork_cancellable f)

let yield () = Effect.perform Yield

let suspend f = Effect.perform (Suspend f)

let set_killable b =
  try Effect.perform (Set_killable b) with Effect.Unhandled _ -> ()

let park register = Effect.perform (Park register)

let switches = ref 0

let stats_switches () = !switches

(* ------------------------------------------------------------------ *)
(* Serving the scheduler effects *)

let spawn rq ctl f =
  rq.current <- ctl;
  Effect.Deep.match_with f () rq.handler

let on_yield rq k =
  let ctl = rq.current in
  if draw_kill rq ctl then push rq "kill" (Discontinue (ctl, k, Killed))
  else push rq "yield" (Continue (ctl, k, ()));
  run_next rq

let no_fork () = ()

let take_forked rq =
  let f = rq.forked in
  rq.forked <- no_fork;
  f

let on_fork rq k =
  let f = take_forked rq in
  push rq "fork" (Continue (rq.current, k, ()));
  spawn rq None f

(* A suspension point of the running fiber under [ctl]: [true] if it
   parks, [false] if it is discontinued instead. *)
let parks rq ctl k =
  match ctl with
  | Some c when c.requested ->
      (* Cancel arrived before this park: discontinue straight away
         instead of parking. *)
      push rq "cancel" (Discontinue (ctl, k, Cancelled));
      false
  | _ ->
      if draw_kill rq ctl then begin
        (* killed instead of parked: the waiter is never armed, so no
           queue ever holds a dead resumer for it *)
        push rq "kill" (Discontinue (ctl, k, Killed));
        false
      end
      else true

let on_suspend rq k f =
  let ctl = rq.current in
  if parks rq ctl k then f (arm rq ctl k);
  run_next rq

(* A wait queue's park: the undo [register] returns becomes the cell's
   cleanup, fired if cancel strikes before the resume. *)
let on_park rq k register =
  let ctl = rq.current in
  (if parks rq ctl k then
     let undo = register (arm rq ctl k) in
     match ctl with Some c -> c.cleanup <- Some undo | None -> ());
  run_next rq

let on_set_killable rq k b =
  (match rq.current with Some c -> c.killable <- b | None -> ());
  Effect.Deep.continue k ()

let handle (type c) rq (eff : c Effect.t) :
    ((c, unit) Effect.Deep.continuation -> unit) option =
  match eff with
  | Yield -> rq.on_yield
  | Fork f ->
      rq.forked <- f;
      rq.on_fork
  | Suspend f -> Some (fun k -> on_suspend rq k f)
  | Fork_cancellable f ->
      rq.forked <- f;
      rq.on_fork_cancellable
  | Set_killable b -> if b then rq.on_killable else rq.on_unkillable
  | Park register -> Some (fun k -> on_park rq k register)
  | _ -> None

(* A fiber's end: [current] is its cell.  A discontinued fiber unwinds
   with Cancelled after its cleanup handlers; that is a normal exit, not
   an error.  A chaos-killed fiber unwinds with Killed the same way. *)
let retc rq () =
  (match rq.current with Some c -> c.finished <- true | None -> ());
  run_next rq

let exnc rq e =
  match (rq.current, e) with
  | Some c, Cancelled when c.requested ->
      c.finished <- true;
      run_next rq
  | Some c, Killed ->
      c.finished <- true;
      run_cleanup c;
      run_next rq
  | _ -> raise e

(* The run queue holds entries rather than bare continuations so that
   resumers can deliver a value (§3.1's asynchronous variant uses the
   same representation).  One handler serves every fiber of a run, and
   the handlers of the effects whose type is fixed are made here, once
   per run. *)
let create ~policy ~chaos ~clock ~by_ops =
  let rec rq =
    {
      buf = Array.make 16 Idle;
      head = 0;
      len = 0;
      lifo = policy = Lifo;
      chaos = Option.map Chaos.make chaos;
      clock;
      by_ops;
      ops = 0;
      switches = 0;
      current = None;
      idle = (fun () -> false);
      handler =
        {
          Effect.Deep.retc = (fun () -> retc rq ());
          exnc = (fun e -> exnc rq e);
          effc = (fun eff -> handle rq eff);
        };
      forked = no_fork;
      on_fork = Some (fun k -> on_fork rq k);
      on_fork_cancellable =
        Some
          (fun k ->
            let f = take_forked rq in
            let child = Ctl.create () in
            push rq "fork" (Continue (rq.current, k, fun () -> Ctl.cancel child));
            spawn rq (Some child) f);
      on_yield = Some (fun k -> on_yield rq k);
      on_killable = Some (fun k -> on_set_killable rq k true);
      on_unkillable = Some (fun k -> on_set_killable rq k false);
    }
  in
  rq

let runner_create ~clock = create ~policy:Fifo ~chaos:None ~clock ~by_ops:false

let runner_length rq = rq.len

let runner_current rq = rq.current

let runner_continue rq reason ctl k v = push rq reason (Continue (ctl, k, v))

let runner_discontinue rq reason ctl k e = push rq reason (Discontinue (ctl, k, e))

let runner_next = run_next

let runner_handle = handle

let runner_retc = retc

let runner_exnc = exnc

let runner_run rq ?handler ~idle main =
  Option.iter (fun h -> rq.handler <- h) handler;
  rq.idle <- idle;
  spawn rq None main

let run ?(policy = Fifo) ?chaos ?(clock = fun () -> 0) ?idle main =
  let rq = create ~policy ~chaos ~clock ~by_ops:true in
  let finally () = switches := rq.switches in
  match runner_run rq ~idle:(Option.value idle ~default:rq.idle) main with
  | () -> finally ()
  | exception e ->
      finally ();
      raise e
