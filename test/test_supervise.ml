(* Supervision trees, mailboxes, and nurseries (ISSUE 7).

   Everything runs inside [Sched.run] with a hand-cranked clock ref, so
   restart windows, heartbeats, and escalation are fully deterministic. *)

module C = Retrofit_core
module Sup = C.Supervise
module N = C.Supervise.Nursery
module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event

let test name f = Alcotest.test_case name `Quick f

exception Boom

let in_sched f = C.Sched.run f

(* -------------- restart strategies -------------- *)

(* A transient child that crashes [crashes] times then succeeds is
   restarted exactly [crashes] times; its sibling is left alone. *)
let one_for_one_restarts () =
  let a_runs = ref 0 and b_runs = ref 0 in
  let crashes = 2 in
  in_sched (fun () ->
      let tree =
        Sup.supervisor ~strategy:Sup.One_for_one ~max_restarts:5 "root"
          [
            Sup.worker "a" (fun () ->
                incr a_runs;
                if !a_runs <= crashes then raise Boom);
            Sup.worker "b" (fun () -> incr b_runs);
          ]
      in
      let h = Sup.start tree in
      Alcotest.(check bool) "completed" true (Sup.wait h = Sup.Completed);
      Alcotest.(check int) "a restarted twice" 3 !a_runs;
      Alcotest.(check int) "b untouched" 1 !b_runs;
      Alcotest.(check int) "restart count" 2 (Sup.restarts h);
      Alcotest.(check int) "no escalation" 0 (Sup.escalations h))

(* one_for_all: a crash of either child takes the sibling down with it
   and restarts both. *)
let one_for_all_restarts () =
  let a_runs = ref 0 and b_runs = ref 0 in
  let a_cancelled = ref 0 in
  in_sched (fun () ->
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      let tree =
        Sup.supervisor ~strategy:Sup.One_for_all ~max_restarts:5 "root"
          [
            Sup.worker "a" (fun () ->
                incr a_runs;
                if !a_runs = 1 then (
                  (* parked on first run so the kill has a target *)
                  try C.Mvar.take mv
                  with C.Sched.Cancelled ->
                    incr a_cancelled;
                    raise C.Sched.Cancelled));
            Sup.worker "b" (fun () ->
                incr b_runs;
                if !b_runs = 1 then raise Boom);
          ]
      in
      let h = Sup.start tree in
      Alcotest.(check bool) "completed" true (Sup.wait h = Sup.Completed);
      Alcotest.(check int) "a ran twice" 2 !a_runs;
      Alcotest.(check int) "a cancelled exactly once" 1 !a_cancelled;
      Alcotest.(check int) "b ran twice" 2 !b_runs)

(* rest_for_one: only children started after the crasher are recycled. *)
let rest_for_one_restarts () =
  let runs = Array.make 3 0 in
  in_sched (fun () ->
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      let w i body = Sup.worker ("w" ^ string_of_int i) body in
      let tree =
        Sup.supervisor ~strategy:Sup.Rest_for_one ~max_restarts:5 "root"
          [
            w 0 (fun () -> runs.(0) <- runs.(0) + 1);
            w 1 (fun () ->
                runs.(1) <- runs.(1) + 1;
                if runs.(1) = 1 then raise Boom);
            w 2 (fun () ->
                runs.(2) <- runs.(2) + 1;
                if runs.(2) = 1 then C.Mvar.take mv);
          ]
      in
      let h = Sup.start tree in
      Alcotest.(check bool) "completed" true (Sup.wait h = Sup.Completed);
      Alcotest.(check int) "w0 untouched" 1 runs.(0);
      Alcotest.(check int) "w1 restarted" 2 runs.(1);
      Alcotest.(check int) "w2 recycled" 2 runs.(2))

(* -------------- restart budget and escalation -------------- *)

(* The supervision events of a traced run, as (kind, path) pairs in
   order. *)
let sup_events run =
  let (), ring = Trace.scoped run in
  List.filter_map
    (fun (e : Tev.t) ->
      match e.ev with
      | Tev.Sup_restart { path } -> Some ("restart", path)
      | Tev.Sup_escalate { path } -> Some ("escalate", path)
      | Tev.Sup_child_exit { path; _ } -> Some ("exit", path)
      | _ -> None)
    (Trace.to_list ring)

(* A child that always crashes blows its supervisor's budget: the
   nested supervisor escalates, the root restarts the whole subtree,
   then itself gives up.  Every layer's escalation is visible in the
   counters and the eventlog. *)
let escalation_to_root () =
  let clock = ref 0 in
  let events =
    sup_events (fun () ->
        in_sched (fun () ->
            let tree =
              Sup.supervisor ~max_restarts:1 "root"
                [
                  Sup.supervisor ~max_restarts:1 "sub"
                    [
                      Sup.worker "crasher" (fun () ->
                          clock := !clock + 10;
                          raise Boom);
                    ];
                ]
            in
            let h = Sup.start ~clock:(fun () -> !clock) tree in
            Alcotest.(check bool) "gave up at root" true (Sup.wait h = Sup.Gave_up "root");
            Alcotest.(check int) "sub twice, then root" 3 (Sup.escalations h)))
  in
  Alcotest.(check bool) "sub escalated" true (List.mem ("escalate", "root/sub") events);
  Alcotest.(check bool) "root escalated" true (List.mem ("escalate", "root") events);
  (* the root restarted the whole sub-tree before giving up: the
     crasher ran again under a fresh sub *)
  Alcotest.(check bool) "subtree restarted" true (List.mem ("restart", "root/sub") events)

(* -------------- kill and heartbeats (watchdog API) -------------- *)

let kill_restarts_worker () =
  let runs = ref 0 in
  in_sched (fun () ->
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      let tree =
        Sup.supervisor ~max_restarts:3 "root"
          [
            Sup.worker "w" (fun () ->
                incr runs;
                if !runs = 1 then C.Mvar.take mv);
          ]
      in
      let h = Sup.start tree in
      Alcotest.(check bool) "running" true (Sup.running h);
      Alcotest.(check bool) "kill hits" true (Sup.kill h "w");
      Alcotest.(check bool) "kill unknown misses" false (Sup.kill h "zzz");
      Alcotest.(check bool) "completed" true (Sup.wait h = Sup.Completed);
      Alcotest.(check int) "restarted after kill" 2 !runs;
      Alcotest.(check int) "one restart" 1 (Sup.restarts h))

let heartbeat_and_self_path () =
  let clock = ref 0 in
  let path = ref "" in
  in_sched (fun () ->
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      let tree =
        Sup.supervisor "root"
          [
            Sup.supervisor "mid"
              [
                Sup.worker "w" (fun () ->
                    path := Sup.self_path ();
                    clock := 42;
                    Sup.heartbeat ();
                    C.Mvar.take mv);
              ];
          ]
      in
      let h = Sup.start ~clock:(fun () -> !clock) tree in
      Alcotest.(check string) "self path" "root/mid/w" !path;
      Alcotest.(check (option int)) "heartbeat stamped" (Some 42)
        (Sup.last_heartbeat h "w");
      Alcotest.(check (option int)) "unknown child" None
        (Sup.last_heartbeat h "zzz");
      C.Mvar.put mv ();
      Alcotest.(check bool) "completed" true (Sup.wait h = Sup.Completed));
  Alcotest.(check string) "outside a tree" "?" (Sup.self_path ())

(* -------------- graceful shutdown -------------- *)

let shutdown_bottom_up () =
  let cleanups = ref [] in
  let events =
    sup_events (fun () ->
        in_sched (fun () ->
            let mv : unit C.Mvar.t = C.Mvar.create_empty () in
            let parked name () =
              Fun.protect
                ~finally:(fun () -> cleanups := name :: !cleanups)
                (fun () -> C.Mvar.take mv)
            in
            let tree =
              Sup.supervisor "root"
                [
                  Sup.supervisor "sub" [ Sup.worker "inner" (parked "inner") ];
                  Sup.worker "outer" (parked "outer");
                ]
            in
            let h = Sup.start tree in
            Alcotest.(check bool) "completed" true (Sup.shutdown h = Sup.Completed);
            Alcotest.(check bool) "stopped" false (Sup.running h);
            Alcotest.(check int) "no escalation" 0 (Sup.escalations h)))
  in
  (* reverse start order: outer (started last) first, then the
     sub-tree, which stops its own children before it exits *)
  Alcotest.(check (list string)) "cleanups ran, reverse order" [ "outer"; "inner" ]
    (List.rev !cleanups);
  Alcotest.(check (list (pair string string))) "children exit bottom-up, nothing restarted"
    [ ("exit", "root/outer"); ("exit", "root/sub/inner"); ("exit", "root/sub") ]
    events

(* -------------- mailbox -------------- *)

let mailbox_order_and_park () =
  in_sched (fun () ->
      let mb : int Sup.Mailbox.t = Sup.Mailbox.create () in
      let got = ref [] in
      C.Sched.fork (fun () ->
          for _ = 1 to 3 do
            got := Sup.Mailbox.recv mb :: !got
          done);
      Sup.Mailbox.send mb 1;
      Sup.Mailbox.send mb 2;
      C.Sched.yield ();
      Sup.Mailbox.send mb 3;
      C.Sched.yield ();
      Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got))

(* A reader cancelled while parked must not eat a later send: the
   message goes to the queue and the next reader gets it. *)
let mailbox_cancelled_reader_loses_nothing () =
  in_sched (fun () ->
      let mb : int Sup.Mailbox.t = Sup.Mailbox.create () in
      let first = ref None and second = ref None in
      let cancel =
        C.Sched.fork_cancellable (fun () ->
            try first := Some (Sup.Mailbox.recv mb)
            with C.Sched.Cancelled -> ())
      in
      C.Sched.yield ();
      cancel ();
      Sup.Mailbox.send mb 7;
      C.Sched.fork (fun () -> second := Some (Sup.Mailbox.recv mb));
      C.Sched.yield ();
      Alcotest.(check (option int)) "cancelled reader got nothing" None !first;
      Alcotest.(check (option int)) "message survived" (Some 7) !second)

(* -------------- nursery -------------- *)

let nursery_join_waits () =
  in_sched (fun () ->
      let done_ = ref 0 in
      let v =
        N.run (fun n ->
            for _ = 1 to 3 do
              N.fork n (fun () ->
                  C.Sched.yield ();
                  incr done_)
            done;
            N.join n;
            !done_)
      in
      Alcotest.(check int) "all children ran before join returned" 3 v)

let nursery_scope_exit_cancels () =
  in_sched (fun () ->
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      let cleanups = ref 0 in
      let v =
        N.run (fun n ->
            N.fork n (fun () ->
                Fun.protect
                  ~finally:(fun () -> incr cleanups)
                  (fun () -> C.Mvar.take mv));
            17 (* leave without joining: the child must not outlive us *))
      in
      Alcotest.(check int) "body value" 17 v;
      Alcotest.(check int) "child cancelled exactly once" 1 !cleanups)

let nursery_failure_cancels_siblings () =
  in_sched (fun () ->
      let sibling_cancelled = ref 0 in
      let mv : unit C.Mvar.t = C.Mvar.create_empty () in
      Alcotest.check_raises "first failure re-raised at scope" Boom (fun () ->
          N.run (fun n ->
              N.fork n (fun () ->
                  try C.Mvar.take mv
                  with C.Sched.Cancelled ->
                    incr sibling_cancelled;
                    raise C.Sched.Cancelled);
              N.fork n (fun () ->
                  C.Sched.yield ();
                  raise Boom);
              N.join n));
      Alcotest.(check int) "sibling cancelled exactly once" 1 !sibling_cancelled)

let nursery_fork_after_failure_noop () =
  in_sched (fun () ->
      let late_ran = ref false in
      (try
         N.run (fun n ->
             N.fork n (fun () -> raise Boom);
             C.Sched.yield ();
             (* scope already failing: this fork must be a no-op *)
             N.fork n (fun () -> late_ran := true);
             N.join n)
       with Boom -> ());
      Alcotest.(check bool) "late fork suppressed" false !late_ran)

let nursery_check_reports_failure () =
  in_sched (fun () ->
      Alcotest.check_raises "check raises first failure" Boom (fun () ->
          N.run (fun n ->
              N.fork n (fun () -> raise Boom);
              C.Sched.yield ();
              N.check n)))

(* A chaos kill of a nursery child is not a scope failure: with a 100%
   kill rate the killable child dies at its first suspension and the
   scope still completes normally. *)
let nursery_kill_is_not_failure () =
  let killed_cleanup = ref 0 in
  let finished = ref false in
  let chaos =
    { (C.Sched.Chaos.default ~seed:9) with C.Sched.Chaos.kill_rate = 1.0 }
  in
  C.Sched.run ~chaos (fun () ->
      N.run (fun n ->
          N.fork n (fun () ->
              Fun.protect
                ~finally:(fun () -> incr killed_cleanup)
                (fun () ->
                  C.Sched.yield ();
                  C.Sched.yield ()));
          N.join n);
      finished := true);
  Alcotest.(check bool) "scope completed" true !finished;
  Alcotest.(check int) "killed child unwound once" 1 !killed_cleanup

let suite =
  [
    test "one_for_one restarts crasher only" one_for_one_restarts;
    test "one_for_all recycles siblings" one_for_all_restarts;
    test "rest_for_one recycles later starts" rest_for_one_restarts;
    test "escalation reaches root" escalation_to_root;
    test "kill restarts worker" kill_restarts_worker;
    test "heartbeat and self_path" heartbeat_and_self_path;
    test "shutdown bottom-up" shutdown_bottom_up;
    test "mailbox order and park" mailbox_order_and_park;
    test "mailbox survives cancelled reader" mailbox_cancelled_reader_loses_nothing;
    test "nursery join waits" nursery_join_waits;
    test "nursery scope exit cancels" nursery_scope_exit_cancels;
    test "nursery failure cancels siblings" nursery_failure_cancels_siblings;
    test "nursery fork after failure noop" nursery_fork_after_failure_noop;
    test "nursery check reports failure" nursery_check_reports_failure;
    test "nursery chaos kill is not failure" nursery_kill_is_not_failure;
  ]
