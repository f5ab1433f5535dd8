(* Erlang-style supervision trees over the §3.1 scheduler.

   Supervisors are ordinary fibers: each one owns a mailbox, forks its
   children with [Sched.fork_cancellable], and every child runs inside
   an effect handler ([Effect.Deep.match_with]) that (a) serves the
   [Self_path]/[Beat] introspection effects and (b) funnels every way a
   fiber can end — normal return, an escaped exception, a [Cancelled]
   or chaos [Killed] unwind — into a single [Child_exited] message to
   the parent's mailbox.  Restart strategies, intensity windows and
   escalation are then plain message-loop logic, exactly the paper's
   pitch that retrofitted handlers make concurrency patterns library
   code.

   Time is virtual: the tree is parameterised by a [clock] (the
   supervised httpsim passes [Evloop.now]), so restart-intensity
   windows and heartbeat staleness are deterministic in the workload
   seed. *)

module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics

exception Escalation of string

type strategy = One_for_one | One_for_all | Rest_for_one

type restart = Permanent | Transient | Temporary

type exit_reason = Exit_normal | Exit_crashed of exn | Exit_killed

let reason_label = function
  | Exit_normal -> "normal"
  | Exit_crashed e -> "crash:" ^ Printexc.to_string e
  | Exit_killed -> "killed"

type outcome = Completed | Gave_up of string

type event =
  | Started of string
  | Exited of string * exit_reason
  | Restarted of string
  | Escalated of string
  | Stopped of string

type spec =
  | Worker of {
      w_name : string;
      w_restart : restart;
      w_killable : bool;
      w_body : unit -> unit;
    }
  | Sup of {
      s_name : string;
      s_strategy : strategy;
      s_max_restarts : int;
      s_window : int;
      s_children : spec list;
    }

let worker ?(restart = Transient) ?(killable = true) name body =
  Worker { w_name = name; w_restart = restart; w_killable = killable; w_body = body }

let supervisor ?(strategy = One_for_one) ?(max_restarts = 3) ?(window = 0) name
    children =
  if children = [] then invalid_arg "Supervise.supervisor: no children";
  Sup
    {
      s_name = name;
      s_strategy = strategy;
      s_max_restarts = max_restarts;
      s_window = window;
      s_children = children;
    }

let spec_name = function Worker w -> w.w_name | Sup s -> s.s_name

let spec_restart = function
  | Worker w -> w.w_restart
  | Sup _ ->
      (* a supervisor child restarts like a Transient worker: crashes
         and escalations bring the subtree back, a normal exit (all its
         children completed, or it was stopped) does not *)
      Transient

(* A single-reader mailbox.  [send] never blocks; [recv] parks the
   reader.  A reader cancelled while parked is purged eagerly (same
   contract as Mvar), so a later [send] queues the message instead of
   feeding it to a dead resumer and losing it. *)
module Mailbox = struct
  type 'a t = { q : 'a Queue.t; mutable waiter : 'a Sched.resumer option }

  let create () = { q = Queue.create (); waiter = None }

  let send t m =
    match t.waiter with
    | Some r ->
        t.waiter <- None;
        r m
    | None -> Queue.push m t.q

  let recv t =
    match Queue.pop t.q with
    | m -> m
    | exception Queue.Empty ->
        let ctl = Sched.current_ctl () in
        Sched.suspend (fun r ->
            t.waiter <- Some r;
            match ctl with
            | Some c -> Sched.Ctl.set_cleanup c (fun () -> t.waiter <- None)
            | None -> ())
end

(* Introspection effects served by each child's wrapper handler. *)
type _ Effect.t += Self_path : string Effect.t | Beat : unit Effect.t

let self_path () =
  try Effect.perform Self_path with Effect.Unhandled _ -> "?"

let heartbeat () = try Effect.perform Beat with Effect.Unhandled _ -> ()

type child = {
  c_spec : spec;
  c_path : string;
  c_index : int;
  mutable c_cancel : (unit -> unit) option;  (* None = not running *)
  mutable c_gen : int;  (* incarnation; stale exit messages are dropped *)
  mutable c_expect_kill : bool;  (* supervisor-initiated kill in flight *)
  mutable c_done : bool;  (* terminal: will never be restarted *)
  mutable c_beat : int;  (* last heartbeat, in clock units *)
  mutable c_stop : (unit -> unit) option;  (* graceful stop (Sup children) *)
}

type msg = Child_exited of child * int * exit_reason | Stop_req

type tree = {
  clock : unit -> int;
  on_event : event -> unit;
  registry : (string, child) Hashtbl.t;  (* leaf name -> live child *)
  mutable restarts : int;
  mutable escalations : int;
  mutable starting : int;
      (* start_child calls whose cancel handle is not yet recorded;
         [start] parks until this drains so the whole tree — including
         nested sub-supervisors — is running before it returns *)
}

let emit_ev tree ev =
  (match ev with
  | Exited (path, how) ->
      if Trace.on () then
        Trace.emit ~ts:(tree.clock ())
          (Tev.Sup_child_exit { path; how = reason_label how });
      if Metrics.on () then Metrics.inc "sup_child_exits_total"
  | Restarted path ->
      if Trace.on () then
        Trace.emit ~ts:(tree.clock ()) (Tev.Sup_restart { path });
      if Metrics.on () then Metrics.inc "sup_restarts_total"
  | Escalated path ->
      if Trace.on () then
        Trace.emit ~ts:(tree.clock ()) (Tev.Sup_escalate { path });
      if Metrics.on () then Metrics.inc "sup_escalations_total"
  | Started _ | Stopped _ -> ());
  tree.on_event ev

(* Run a child body under the wrapper handler: serve the introspection
   effects and normalise every exit into an [exit_reason]. *)
let run_wrapped tree rt body =
  Effect.Deep.match_with body ()
    {
      Effect.Deep.retc = (fun () -> Exit_normal);
      exnc =
        (fun e ->
          match e with
          | Sched.Cancelled | Sched.Killed -> Exit_killed
          | e -> Exit_crashed e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Self_path ->
              Some
                (fun (k : (c, exit_reason) Effect.Deep.continuation) ->
                  Effect.Deep.continue k rt.c_path)
          | Beat ->
              Some
                (fun (k : (c, exit_reason) Effect.Deep.continuation) ->
                  rt.c_beat <- tree.clock ();
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let rec start_child tree mb rt =
  tree.starting <- tree.starting + 1;
  rt.c_gen <- rt.c_gen + 1;
  let gen = rt.c_gen in
  rt.c_expect_kill <- false;
  rt.c_beat <- tree.clock ();
  let body, killable, stop =
    match rt.c_spec with
    | Worker w -> (w.w_body, w.w_killable, None)
    | Sup s ->
        let sub_mb = Mailbox.create () in
        let strategy = s.s_strategy
        and max_restarts = s.s_max_restarts
        and window = s.s_window
        and children = s.s_children in
        ( (fun () ->
            run_sup tree sub_mb rt.c_path ~strategy ~max_restarts ~window
              ~children),
          false,
          Some (fun () -> Mailbox.send sub_mb Stop_req) )
  in
  rt.c_stop <- stop;
  Hashtbl.replace tree.registry (spec_name rt.c_spec) rt;
  emit_ev tree (Started rt.c_path);
  let cancel =
    Sched.fork_cancellable (fun () ->
        if killable then Sched.set_killable true;
        let reason = run_wrapped tree rt body in
        Mailbox.send mb (Child_exited (rt, gen, reason)))
  in
  rt.c_cancel <- Some cancel;
  tree.starting <- tree.starting - 1

(* The supervisor loop for one node of the tree.  Runs in its own
   fiber; returns normally when stopped or when every child is
   terminal, raises [Escalation] when the restart budget is blown. *)
and run_sup tree mb path ~strategy ~max_restarts ~window ~children =
  let rts =
    List.mapi
      (fun i spec ->
        {
          c_spec = spec;
          c_path = path ^ "/" ^ spec_name spec;
          c_index = i;
          c_cancel = None;
          c_gen = 0;
          c_expect_kill = false;
          c_done = false;
          c_beat = 0;
          c_stop = None;
        })
      children
  in
  let backlog : msg Queue.t = Queue.create () in
  let recv () =
    match Queue.pop backlog with
    | m -> m
    | exception Queue.Empty -> Mailbox.recv mb
  in
  let note_exit rt reason =
    rt.c_cancel <- None;
    emit_ev tree (Exited (rt.c_path, reason))
  in
  (* Kill the given children and wait for each to unwind; messages for
     other children are kept aside for the main loop. *)
  let kill_and_wait targets =
    List.iter
      (fun rt ->
        match rt.c_cancel with
        | Some cancel ->
            rt.c_expect_kill <- true;
            cancel ()
        | None -> ())
      targets;
    let process = function
      | Child_exited (rt, gen, _) when gen <> rt.c_gen -> ()  (* stale *)
      | Child_exited (rt, _, reason) when List.memq rt targets ->
          note_exit rt reason
      | m -> Queue.push m backlog
    in
    let pre = Queue.create () in
    Queue.transfer backlog pre;
    Queue.iter process pre;
    while List.exists (fun rt -> rt.c_cancel <> None) targets do
      process (Mailbox.recv mb)
    done
  in
  let restart_times = ref [] in
  let over_budget () =
    let now = tree.clock () in
    let kept =
      if window > 0 then
        List.filter (fun t -> now - t < window) !restart_times
      else !restart_times
    in
    restart_times := now :: kept;
    List.length !restart_times > max_restarts
  in
  let escalate () =
    tree.escalations <- tree.escalations + 1;
    emit_ev tree (Escalated path);
    kill_and_wait (List.filter (fun rt -> rt.c_cancel <> None) rts);
    raise (Escalation path)
  in
  (* Graceful, bottom-up teardown of one child: supervisors get a Stop
     message (which recursively stops their children first), workers
     are cancelled and unwind through their own cleanup handlers. *)
  let stop_child rt =
    match rt.c_cancel with
    | None -> ()
    | Some cancel ->
        (match rt.c_stop with
        | Some stop -> stop ()
        | None ->
            rt.c_expect_kill <- true;
            cancel ());
        while rt.c_cancel <> None do
          match Mailbox.recv mb with
          | Child_exited (r, gen, _) when gen <> r.c_gen -> ()
          | Child_exited (r, _, reason) -> note_exit r reason
          | Stop_req -> ()  (* already stopping *)
        done
  in
  List.iter (start_child tree mb) rts;
  let rec loop () =
    match recv () with
    | Stop_req ->
        List.iter stop_child (List.rev rts);
        emit_ev tree (Stopped path)
    | Child_exited (rt, gen, _) when gen <> rt.c_gen -> loop ()  (* stale *)
    | Child_exited (rt, _, reason) ->
        note_exit rt reason;
        let abnormal =
          match reason with
          | Exit_crashed _ -> true
          | Exit_killed -> not rt.c_expect_kill
          | Exit_normal -> false
        in
        let want_restart =
          match spec_restart rt.c_spec with
          | Permanent -> true
          | Transient -> abnormal
          | Temporary -> false
        in
        if want_restart then begin
          if over_budget () then escalate ()
          else begin
            tree.restarts <- tree.restarts + 1;
            let targets =
              match strategy with
              | One_for_one -> [ rt ]
              | One_for_all -> rts
              | Rest_for_one ->
                  List.filter (fun r -> r.c_index >= rt.c_index) rts
            in
            kill_and_wait (List.filter (fun r -> r != rt) targets);
            List.iter
              (fun r ->
                if not r.c_done then begin
                  emit_ev tree (Restarted r.c_path);
                  start_child tree mb r
                end)
              targets
          end
        end
        else rt.c_done <- true;
        if List.for_all (fun r -> r.c_done) rts then
          (* every child terminal: the supervisor's job is over *)
          ()
        else loop ()
  in
  try loop () with
  | Sched.Cancelled as e ->
      (* force-killed from above: fire the children's cancels (we
         cannot park to wait — our own next suspension would raise
         again); they unwind on their own *)
      List.iter
        (fun rt ->
          match rt.c_cancel with
          | Some cancel ->
              rt.c_expect_kill <- true;
              cancel ()
          | None -> ())
        rts;
      raise e

type handle = {
  h_tree : tree;
  h_mb : msg Mailbox.t;
  h_root : string;
  mutable h_outcome : outcome option;
  mutable h_waiters : unit Sched.resumer list;
}

let start ?(clock = fun () -> 0) ?(on_event = fun _ -> ()) spec =
  match spec with
  | Worker _ -> invalid_arg "Supervise.start: top-level spec must be a supervisor"
  | Sup s ->
      let tree =
        {
          clock;
          on_event;
          registry = Hashtbl.create 16;
          restarts = 0;
          escalations = 0;
          starting = 0;
        }
      in
      let mb = Mailbox.create () in
      let h =
        {
          h_tree = tree;
          h_mb = mb;
          h_root = s.s_name;
          h_outcome = None;
          h_waiters = [];
        }
      in
      let (_ : unit -> unit) =
        Sched.fork_cancellable (fun () ->
            let out =
              match
                run_sup tree mb s.s_name ~strategy:s.s_strategy
                  ~max_restarts:s.s_max_restarts ~window:s.s_window
                  ~children:s.s_children
              with
              | () -> Completed
              | exception Escalation p -> Gave_up p
            in
            h.h_outcome <- Some out;
            let ws = h.h_waiters in
            h.h_waiters <- [];
            List.iter (fun r -> r ()) ws)
      in
      (* The root fiber ran to its first suspension, which lies inside
         its first [start_child] — so [starting] is already positive
         here and only drains once every fork's cancel handle is
         recorded.  Yield (not park) until then: nothing wakes us. *)
      while tree.starting > 0 && h.h_outcome = None do
        Sched.yield ()
      done;
      h

let running h = h.h_outcome = None

let rec wait h =
  match h.h_outcome with
  | Some o -> o
  | None ->
      let ctl = Sched.current_ctl () in
      Sched.suspend (fun r ->
          h.h_waiters <- r :: h.h_waiters;
          match ctl with
          | Some c ->
              Sched.Ctl.set_cleanup c (fun () ->
                  h.h_waiters <- List.filter (fun r' -> r' != r) h.h_waiters)
          | None -> ());
      wait h

let shutdown h =
  Mailbox.send h.h_mb Stop_req;
  wait h

let kill h name =
  match Hashtbl.find_opt h.h_tree.registry name with
  | Some rt -> (
      match rt.c_cancel with
      | Some cancel ->
          cancel ();
          true
      | None -> false)
  | None -> false

let last_heartbeat h name =
  match Hashtbl.find_opt h.h_tree.registry name with
  | Some rt -> Some rt.c_beat
  | None -> None

let restarts h = h.h_tree.restarts

let escalations h = h.h_tree.escalations

(* A nursery child's cancel handle until its fork returns.  It stays out
   of [Nursery], whose block module initialisation allocates (see
   Sched's [Ctl]). *)
let no_cancel () = ()

(* Trio-style structured concurrency on top of [fork_cancellable]:
   children never outlive the scope, the first unhandled child
   exception cancels the siblings and re-raises at the scope, and a
   cancel reaches each fiber exactly once (Ctl.cancel is one-shot). *)
module Nursery = struct
  (* The running children, newest first, in a ring through a sentinel:
     a child unlinks itself when it finishes, so a long-lived scope
     holds only its live children. *)
  type kid = {
    mutable k_cancel : unit -> unit;
    mutable older : kid;
    mutable newer : kid;
  }

  type t = {
    n_name : string;
    mutable n_live : int;
    mutable n_first : exn option;  (* first unhandled child exception *)
    n_kids : kid;  (* the sentinel *)
    mutable n_closing : bool;
    mutable n_joiner : unit Sched.resumer option;
  }

  let live t = t.n_live

  let failed t = t.n_first

  let cancel_scope t =
    let rec go kid =
      if kid != t.n_kids then begin
        let older = kid.older in
        kid.k_cancel ();
        go older
      end
    in
    go t.n_kids.older

  let wake t =
    match t.n_joiner with
    | Some r ->
        t.n_joiner <- None;
        r ()
    | None -> ()

  let fork ?(killable = true) t f =
    if t.n_first <> None || t.n_closing then ()
      (* the scope is failing or closing: a new child would be cancelled
         immediately, so it is never started *)
    else begin
      t.n_live <- t.n_live + 1;
      let s = t.n_kids in
      let kid = { k_cancel = no_cancel; older = s.older; newer = s } in
      s.older.newer <- kid;
      s.older <- kid;
      let cancel =
        Sched.fork_cancellable (fun () ->
            if killable then Sched.set_killable true;
            let failure =
              match f () with
              | () -> None
              | exception (Sched.Cancelled | Sched.Killed) -> None
              | exception e -> Some e
            in
            kid.newer.older <- kid.older;
            kid.older.newer <- kid.newer;
            t.n_live <- t.n_live - 1;
            (match failure with
            | Some e when t.n_first = None ->
                t.n_first <- Some e;
                cancel_scope t
            | _ -> ());
            if t.n_live = 0 || t.n_first <> None then wake t)
      in
      (* if the child already finished, it is unlinked and this handle
         is never called *)
      kid.k_cancel <- cancel
    end

  let check t = match t.n_first with Some e -> raise e | None -> ()

  let rec join t =
    check t;
    if t.n_live > 0 then begin
      let ctl = Sched.current_ctl () in
      Sched.suspend (fun r ->
          t.n_joiner <- Some r;
          match ctl with
          | Some c -> Sched.Ctl.set_cleanup c (fun () -> t.n_joiner <- None)
          | None -> ());
      join t
    end

  let run ?(clock = fun () -> 0) ?(name = "nursery") body =
    let rec sentinel = { k_cancel = no_cancel; older = sentinel; newer = sentinel } in
    let t =
      {
        n_name = name;
        n_live = 0;
        n_first = None;
        n_kids = sentinel;
        n_closing = false;
        n_joiner = None;
      }
    in
    (* Scope markers for the causal layer; emitted even when the body
       raises, so every begin has a matching end in a complete log. *)
    let mark ev = if Trace.on () then Trace.emit ~ts:(clock ()) ev in
    mark (Tev.Nursery_begin { name });
    let finally () = mark (Tev.Nursery_end { name }) in
    let result = match body t with v -> Ok v | exception e -> Error e in
    t.n_closing <- true;
    (* scope exit cancels every still-running child, exactly once each *)
    cancel_scope t;
    let we_were_cancelled = ref false in
    let rec drain () =
      if t.n_live > 0 then begin
        match
          let ctl = Sched.current_ctl () in
          Sched.suspend (fun r ->
              t.n_joiner <- Some r;
              match ctl with
              | Some c ->
                  Sched.Ctl.set_cleanup c (fun () -> t.n_joiner <- None)
              | None -> ())
        with
        | () -> drain ()
        | exception Sched.Cancelled ->
            (* we are being cancelled ourselves and can no longer park;
               the children are already cancelled and unwind on their
               own *)
            we_were_cancelled := true
      end
    in
    drain ();
    (* all children are gone: close the span before any re-raise below *)
    finally ();
    match result with
    | Error e -> raise e
    | Ok v -> (
        if !we_were_cancelled then raise Sched.Cancelled;
        match t.n_first with Some e -> raise e | None -> v)

  let name t = t.n_name
end
