(* Eff, Sched, Mvar, Evloop, Chan, Aio *)
module C = Retrofit_core
module Nursery = Retrofit_core.Supervise.Nursery

let test name f = Alcotest.test_case name `Quick f

(* ---------------- Eff ---------------- *)

type _ Effect.t += Ask : int Effect.t

exception Boom

let eff_match_with () =
  let r =
    C.Eff.match_with
      (fun () -> C.Eff.perform Ask + 1)
      {
        C.Eff.retc = (fun v -> v * 10);
        exnc = raise;
        effc =
          (fun (type c) (eff : c C.Eff.eff) ->
            match eff with
            | Ask -> Some (fun (k : (c, int) C.Eff.continuation) -> C.Eff.continue k 3)
            | _ -> None);
      }
  in
  Alcotest.(check int) "deep handler applies retc" 40 r

let eff_value_handler () =
  let h = C.Eff.value_handler (fun v -> v + 1) in
  Alcotest.(check int) "retc" 42 (C.Eff.match_with (fun () -> 41) h);
  Alcotest.check_raises "exn reraised" Boom (fun () ->
      ignore (C.Eff.match_with (fun () -> raise Boom) h))

let eff_discontinue () =
  let r =
    C.Eff.match_with
      (fun () -> try C.Eff.perform Ask with Boom -> -1)
      {
        C.Eff.retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type c) (eff : c C.Eff.eff) ->
            match eff with
            | Ask ->
                Some (fun (k : (c, int) C.Eff.continuation) -> C.Eff.discontinue k Boom)
            | _ -> None);
      }
  in
  Alcotest.(check int) "raised at perform site" (-1) r

let eff_unhandled () =
  Alcotest.check_raises "Unhandled" (Effect.Unhandled Ask) (fun () ->
      ignore (Effect.perform Ask))

let eff_one_shot () =
  let f = C.Eff.one_shot (fun x -> x + 1) in
  Alcotest.(check int) "first" 2 (f 1);
  Alcotest.check_raises "second" (Invalid_argument "one_shot: already invoked")
    (fun () -> ignore (f 1))

let eff_protect () =
  let log = ref [] in
  let r = C.Eff.protect ~finally:(fun () -> log := "f" :: !log) (fun () -> 7) in
  Alcotest.(check int) "value" 7 r;
  (try
     C.Eff.protect ~finally:(fun () -> log := "g" :: !log) (fun () -> raise Boom)
   with Boom -> ());
  Alcotest.(check (list string)) "both ran" [ "g"; "f" ] !log

(* ---------------- Sched ---------------- *)

let sched_runs_all () =
  let done_ = ref 0 in
  C.Sched.run (fun () ->
      for _ = 1 to 10 do
        C.Sched.fork (fun () -> incr done_)
      done);
  Alcotest.(check int) "all forks ran" 10 !done_

(* Fork runs the child immediately (§3.1), so policies only differ once
   threads yield: under FIFO the yielders alternate, under LIFO the
   yielding thread is resumed first and runs to completion. *)
let policy_trace policy =
  let log = ref [] in
  let worker tag () =
    log := (tag ^ "1") :: !log;
    C.Sched.yield ();
    log := (tag ^ "2") :: !log
  in
  C.Sched.run ~policy (fun () ->
      C.Sched.fork (worker "a");
      C.Sched.fork (worker "b"));
  List.rev !log

let sched_fifo_order () =
  Alcotest.(check (list string)) "fifo alternates yielders"
    [ "a1"; "b1"; "a2"; "b2" ]
    (policy_trace C.Sched.Fifo)

let sched_lifo_order () =
  Alcotest.(check (list string)) "lifo runs yielder to completion"
    [ "a1"; "a2"; "b1"; "b2" ]
    (policy_trace C.Sched.Lifo)

let sched_yield_interleaves () =
  let log = Buffer.create 16 in
  C.Sched.run (fun () ->
      C.Sched.fork (fun () ->
          Buffer.add_char log 'a';
          C.Sched.yield ();
          Buffer.add_char log 'a');
      C.Sched.fork (fun () ->
          Buffer.add_char log 'b';
          C.Sched.yield ();
          Buffer.add_char log 'b'));
  Alcotest.(check string) "interleaved" "abab" (Buffer.contents log)

let sched_nested_fork () =
  let count = ref 0 in
  C.Sched.run (fun () ->
      C.Sched.fork (fun () ->
          C.Sched.fork (fun () -> incr count);
          incr count);
      incr count);
  Alcotest.(check int) "nested" 3 !count

let sched_suspend_resume () =
  let resumer = ref None in
  let got = ref 0 in
  C.Sched.run (fun () ->
      C.Sched.fork (fun () -> got := C.Sched.suspend (fun r -> resumer := Some r));
      C.Sched.fork (fun () ->
          match !resumer with Some r -> r 42 | None -> Alcotest.fail "no resumer"));
  Alcotest.(check int) "resumed with value" 42 !got

let sched_resumer_once () =
  let boom = ref None in
  C.Sched.run (fun () ->
      let r = ref (fun (_ : int) -> ()) in
      C.Sched.fork (fun () -> ignore (C.Sched.suspend (fun resume -> r := resume)));
      C.Sched.fork (fun () ->
          !r 1;
          match !r 2 with () -> () | exception C.Sched.One_shot -> boom := Some ()));
  Alcotest.(check bool) "second resume raises One_shot" true (!boom = Some ())

(* ---------------- Cancellation (§2.3) ---------------- *)

(* Cancelling a fiber parked in Suspend discontinues it with Cancelled
   at the suspension point, its exception-driven cleanup runs, and the
   now-dead resumer becomes a clean no-op (not One_shot). *)
let sched_cancel_suspended () =
  let log = ref [] in
  let resumer = ref (fun (_ : int) -> ()) in
  C.Sched.run (fun () ->
      let cancel =
        C.Sched.fork_cancellable (fun () ->
            match
              C.Eff.protect
                ~finally:(fun () -> log := "cleanup" :: !log)
                (fun () -> C.Sched.suspend (fun r -> resumer := r))
            with
            | _ -> log := "returned" :: !log
            | exception C.Sched.Cancelled -> log := "cancelled" :: !log)
      in
      C.Sched.fork (fun () ->
          cancel ();
          C.Sched.yield ();
          (* The suspension was consumed by the cancel: resuming is a
             no-op, not a crash. *)
          !resumer 42;
          log := "resumed-after-cancel" :: !log));
  Alcotest.(check (list string))
    "cleanup ran, resumer no-op"
    [ "cleanup"; "cancelled"; "resumed-after-cancel" ]
    (List.rev !log)

(* Cancelling after the fiber completed is a no-op, as is a second
   cancel. *)
let sched_cancel_completed () =
  let ran = ref false in
  C.Sched.run (fun () ->
      let cancel = C.Sched.fork_cancellable (fun () -> ran := true) in
      C.Sched.yield ();
      cancel ();
      cancel ());
  Alcotest.(check bool) "fiber ran to completion" true !ran

(* A cancel issued while the fiber is runnable (not parked) lands at
   its next suspension point. *)
let sched_cancel_before_suspend () =
  let log = ref [] in
  C.Sched.run (fun () ->
      let cancel =
        C.Sched.fork_cancellable (fun () ->
            log := "start" :: !log;
            C.Sched.yield ();
            (match C.Sched.suspend (fun _ -> ()) with
            | (_ : int) -> log := "woke" :: !log
            | exception C.Sched.Cancelled -> log := "cancelled" :: !log);
            log := "after" :: !log)
      in
      cancel ());
  Alcotest.(check (list string))
    "discontinued at next suspension"
    [ "start"; "cancelled"; "after" ]
    (List.rev !log)

(* ---------------- Mvar ---------------- *)

let mvar_basic () =
  C.Sched.run (fun () ->
      let mv = C.Mvar.create 1 in
      Alcotest.(check int) "take full" 1 (C.Mvar.take mv);
      Alcotest.(check bool) "now empty" true (C.Mvar.is_empty mv);
      C.Mvar.put mv 2;
      Alcotest.(check (option int)) "try_take" (Some 2) (C.Mvar.try_take mv);
      Alcotest.(check (option int)) "try_take empty" None (C.Mvar.try_take mv))

let mvar_blocking_take () =
  let got = ref [] in
  C.Sched.run (fun () ->
      let mv = C.Mvar.create_empty () in
      C.Sched.fork (fun () ->
          let v = C.Mvar.take mv in
          got := ("a", v) :: !got);
      C.Sched.fork (fun () ->
          let v = C.Mvar.take mv in
          got := ("b", v) :: !got);
      C.Sched.fork (fun () ->
          C.Mvar.put mv 1;
          C.Mvar.put mv 2));
  (* takers are served in FIFO order *)
  Alcotest.(check (list (pair string int))) "fifo takers" [ ("a", 1); ("b", 2) ]
    (List.rev !got)

let mvar_blocking_put () =
  let order = ref [] in
  C.Sched.run (fun () ->
      let mv = C.Mvar.create 0 in
      C.Sched.fork (fun () ->
          C.Mvar.put mv 1;
          order := "p1 done" :: !order);
      C.Sched.fork (fun () ->
          let a = C.Mvar.take mv in
          order := Printf.sprintf "take %d" a :: !order;
          let b = C.Mvar.take mv in
          order := Printf.sprintf "take %d" b :: !order));
  Alcotest.(check (list string)) "put parked then served"
    [ "take 0"; "take 1"; "p1 done" ]
    (List.rev !order)

(* A taker cancelled while parked is purged eagerly: the wait queue
   drops it immediately and a later put goes to the surviving taker. *)
let mvar_cancelled_taker_purged () =
  let got = ref None and cancelled = ref 0 in
  C.Sched.run (fun () ->
      let mv = C.Mvar.create_empty () in
      let cancel =
        C.Sched.fork_cancellable (fun () ->
            try ignore (C.Mvar.take mv)
            with C.Sched.Cancelled ->
              incr cancelled;
              raise C.Sched.Cancelled)
      in
      C.Sched.fork (fun () -> got := Some (C.Mvar.take mv));
      Alcotest.(check int) "two takers parked" 2 (C.Mvar.waiters mv);
      cancel ();
      Alcotest.(check int) "purged eagerly on cancel" 1 (C.Mvar.waiters mv);
      C.Mvar.put mv 9;
      C.Sched.yield ();
      Alcotest.(check (option int)) "survivor got the value" (Some 9) !got;
      Alcotest.(check int) "cancelled exactly once" 1 !cancelled)

(* A putter cancelled while parked never deposits its value. *)
let mvar_cancelled_putter_purged () =
  C.Sched.run (fun () ->
      let mv = C.Mvar.create 0 in
      let cancel = C.Sched.fork_cancellable (fun () -> C.Mvar.put mv 1) in
      Alcotest.(check int) "putter parked" 1 (C.Mvar.waiters mv);
      cancel ();
      Alcotest.(check int) "purged eagerly on cancel" 0 (C.Mvar.waiters mv);
      Alcotest.(check int) "stored value intact" 0 (C.Mvar.take mv);
      Alcotest.(check (option int)) "cancelled put never lands" None
        (C.Mvar.try_take mv))

(* ---------------- Evloop ---------------- *)

let evloop_ordering () =
  let loop = C.Evloop.create () in
  let log = ref [] in
  C.Evloop.after loop ~delay:30 (fun () -> log := 30 :: !log);
  C.Evloop.after loop ~delay:10 (fun () -> log := 10 :: !log);
  C.Evloop.after loop ~delay:20 (fun () -> log := 20 :: !log);
  C.Evloop.drain loop;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last" 30 (C.Evloop.now loop)

let evloop_same_instant () =
  let loop = C.Evloop.create () in
  let log = ref [] in
  C.Evloop.after loop ~delay:5 (fun () -> log := "a" :: !log);
  C.Evloop.after loop ~delay:5 (fun () -> log := "b" :: !log);
  Alcotest.(check bool) "one advance runs both" true (C.Evloop.advance_once loop);
  Alcotest.(check (list string)) "both" [ "a"; "b" ] (List.rev !log)

let evloop_advance_until () =
  let loop = C.Evloop.create () in
  let flag = ref false in
  C.Evloop.after loop ~delay:50 (fun () -> flag := true);
  C.Evloop.after loop ~delay:100 (fun () -> ());
  Alcotest.(check bool) "reached" true (C.Evloop.advance_until loop (fun () -> !flag));
  Alcotest.(check int) "stopped at 50" 50 (C.Evloop.now loop);
  Alcotest.(check int) "one pending" 1 (C.Evloop.pending loop)

let evloop_negative_delay () =
  let loop = C.Evloop.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Evloop.after: negative delay")
    (fun () -> C.Evloop.after loop ~delay:(-1) (fun () -> ()))

(* ---------------- Chan ---------------- *)

let chan_feed_and_read () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic loop in
  C.Chan.feed_line ic ~delay:10 "hello";
  C.Chan.feed_eof ic ~delay:20;
  Alcotest.(check bool) "not ready" true (C.Chan.read_line_nonblock ic = `Not_ready);
  Alcotest.(check string) "blocking read" "hello" (C.Chan.read_line_blocking ic);
  Alcotest.check_raises "eof" End_of_file (fun () ->
      ignore (C.Chan.read_line_blocking ic))

let chan_closed () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic loop in
  C.Chan.close_in ic;
  Alcotest.(check bool) "sys_error" true
    (match C.Chan.read_line_nonblock ic with
    | _ -> false
    | exception Sys_error _ -> true);
  let oc = C.Chan.make_oc loop in
  C.Chan.write_string oc "x";
  C.Chan.close_out oc;
  Alcotest.(check bool) "write closed" true
    (match C.Chan.write_string oc "y" with
    | _ -> false
    | exception Sys_error _ -> true);
  Alcotest.(check string) "contents" "x" (C.Chan.contents oc)

let chan_lazy_latency () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic_lazy loop ~latency:100 [ "a"; "b" ] in
  Alcotest.(check string) "first" "a" (C.Chan.read_line_blocking ic);
  Alcotest.(check int) "after first" 100 (C.Evloop.now loop);
  Alcotest.(check string) "second" "b" (C.Chan.read_line_blocking ic);
  Alcotest.(check int) "after second" 200 (C.Evloop.now loop);
  Alcotest.check_raises "eof after latency" End_of_file (fun () ->
      ignore (C.Chan.read_line_blocking ic));
  Alcotest.(check int) "eof costs latency too" 300 (C.Evloop.now loop)

let chan_blocked_forever () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic loop in
  Alcotest.(check bool) "sys_error" true
    (match C.Chan.read_line_blocking ic with
    | _ -> false
    | exception Sys_error _ -> true)

(* ---------------- Aio ---------------- *)

let aio_copy_both_runners () =
  List.iter
    (fun runner ->
      let loop = C.Evloop.create () in
      let ic = C.Chan.make_ic_lazy loop ~latency:10 [ "x"; "y" ] in
      let oc = C.Chan.make_oc loop in
      runner loop (fun () -> C.Aio.copy ic oc);
      Alcotest.(check string) "copied" "x\ny\n" (C.Chan.contents oc))
    [ C.Aio.run_sync; C.Aio.run_async ]

let aio_async_overlaps () =
  let time runner =
    let loop = C.Evloop.create () in
    let mk () = C.Chan.make_ic_lazy loop ~latency:100 [ "1"; "2" ] in
    let a = mk () and b = mk () in
    let oa = C.Chan.make_oc loop and ob = C.Chan.make_oc loop in
    runner loop (fun () ->
        C.Sched.fork (fun () -> C.Aio.copy a oa);
        C.Aio.copy b ob);
    C.Evloop.now loop
  in
  let sync = time C.Aio.run_sync and async = time C.Aio.run_async in
  Alcotest.(check bool)
    (Printf.sprintf "async (%d) < sync (%d)" async sync)
    true (async < sync)

let aio_deadlock_detected () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic loop in
  (* no data will ever arrive *)
  Alcotest.(check bool) "failure" true
    (match C.Aio.run_async loop (fun () -> ignore (C.Aio.input_line ic)) with
    | _ -> false
    | exception Failure _ -> true)

let aio_mix_with_mvar () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic_lazy loop ~latency:5 [ "data" ] in
  let result = ref "" in
  C.Aio.run_async loop (fun () ->
      let mv = C.Mvar.create_empty () in
      C.Sched.fork (fun () -> C.Mvar.put mv (C.Aio.input_line ic));
      result := C.Mvar.take mv);
  Alcotest.(check string) "threaded through mvar" "data" !result

(* Cancellation composes with async I/O: a timeout cancels [copy]
   mid-read, the §3.2 exception-driven cleanup closes both channels,
   and the pending read's completion is a no-op. *)
let aio_timeout_cancels_copy () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic_lazy loop ~latency:100 [ "a"; "b"; "c"; "d" ] in
  let oc = C.Chan.make_oc loop in
  let status = ref (fun () -> (`Running : C.Aio.timeout_status)) in
  C.Aio.run_async loop (fun () -> status := C.Aio.timeout loop ~delay:250 (fun () -> C.Aio.copy ic oc));
  Alcotest.(check bool) "status cancelled" true (!status () = `Cancelled);
  Alcotest.(check string) "partial copy" "a\nb\n" (C.Chan.contents oc);
  Alcotest.(check bool) "ic closed by cleanup" true
    (match C.Chan.read_line_nonblock ic with
    | _ -> false
    | exception Sys_error _ -> true);
  Alcotest.(check bool) "oc closed by cleanup" true
    (match C.Chan.write_string oc "z" with
    | _ -> false
    | exception Sys_error _ -> true)

let aio_timeout_completes () =
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic_lazy loop ~latency:10 [ "a" ] in
  let oc = C.Chan.make_oc loop in
  let status = ref (fun () -> (`Running : C.Aio.timeout_status)) in
  C.Aio.run_async loop (fun () ->
      status := C.Aio.timeout loop ~delay:10_000 (fun () -> C.Aio.copy ic oc));
  Alcotest.(check bool) "status done" true (!status () = `Done);
  Alcotest.(check string) "full copy" "a\n" (C.Chan.contents oc)

(* ---------------- Ctl protocol edges under Aio ---------------- *)

(* §2.3 cancellation edges exercised through the async runner: cancel
   after finish and double cancel are no-ops, in both runners. *)
let aio_ctl_edges () =
  List.iter
    (fun run ->
      let loop = C.Evloop.create () in
      let ran = ref 0 in
      run loop (fun () ->
          let cancel = C.Sched.fork_cancellable (fun () -> incr ran) in
          C.Sched.yield ();
          cancel ();
          cancel ());
      Alcotest.(check int) "ran once, cancels no-ops" 1 !ran)
    [ C.Aio.run_sync ?chaos:None; C.Aio.run_async ?chaos:None ]

(* A fiber cancelled while parked on a pending read: the §3.2 cleanup
   unwinds it, the eager purge drops it from the pending list, and the
   I/O completing later must not revive it. *)
let aio_cancel_races_pending_resume () =
  let cancelled = ref 0 and revived = ref false and got = ref None in
  let loop = C.Evloop.create () in
  let ic = C.Chan.make_ic_lazy loop ~latency:100 [ "x"; "y" ] in
  C.Aio.run_async loop (fun () ->
      let cancel =
        C.Sched.fork_cancellable (fun () ->
            (try ignore (C.Aio.input_line ic)
             with C.Sched.Cancelled ->
               incr cancelled;
               raise C.Sched.Cancelled);
            revived := true)
      in
      (* the child is parked on the not-yet-ready line; cancel it just
         before the data arrives *)
      cancel ();
      cancel ();
      (* a second reader issued after the cancel gets the line the dead
         one must not consume *)
      got := Some (C.Aio.input_line ic));
  Alcotest.(check int) "cancelled exactly once" 1 !cancelled;
  Alcotest.(check bool) "completion did not revive it" false !revived;
  Alcotest.(check (option string)) "line went to the live reader"
    (Some "x") !got

(* ---------------- chaos scheduling ---------------- *)

(* The same seed must produce the same interleaving, kill decisions and
   injection counters — run the workload twice and compare everything. *)
let chaos_run seed =
  let log = ref [] in
  let chaos =
    {
      (C.Sched.Chaos.default ~seed) with
      C.Sched.Chaos.kill_rate = 0.05;
      delay_rate = 0.2;
      reorder_rate = 0.3;
      spurious_rate = 0.1;
    }
  in
  C.Sched.run ~chaos (fun () ->
      for i = 1 to 4 do
        let (_ : unit -> unit) =
          C.Sched.fork_cancellable (fun () ->
               C.Sched.set_killable (i mod 2 = 0);
               Fun.protect
                 ~finally:(fun () -> log := (i, -1) :: !log)
                 (fun () ->
                   for j = 1 to 5 do
                     log := (i, j) :: !log;
                     C.Sched.yield ()
                   done))
        in
        ()
      done);
  let stats =
    match C.Sched.chaos_stats () with
    | Some s ->
        C.Sched.Chaos.
          [ s.kills; s.delays; s.reorders; s.spurious ]
    | None -> []
  in
  (List.rev !log, stats)

let sched_chaos_deterministic () =
  let log1, stats1 = chaos_run 11 in
  let log2, stats2 = chaos_run 11 in
  Alcotest.(check (list (pair int int))) "same interleaving" log1 log2;
  Alcotest.(check (list int)) "same injection counters" stats1 stats2;
  Alcotest.(check bool) "chaos actually injected" true
    (List.exists (fun n -> n > 0) stats1)

(* Only fibers that opted in via [set_killable] are ever killed. *)
let sched_chaos_kills_killable_only () =
  let safe_steps = ref 0 and killable_unwound = ref 0 in
  let chaos =
    { (C.Sched.Chaos.default ~seed:3) with C.Sched.Chaos.kill_rate = 1.0 }
  in
  C.Sched.run ~chaos (fun () ->
      let (_ : unit -> unit) =
        C.Sched.fork_cancellable (fun () ->
            C.Sched.set_killable true;
            Fun.protect
              ~finally:(fun () -> incr killable_unwound)
              (fun () ->
                for _ = 1 to 5 do
                  C.Sched.yield ()
                done))
      in
      let (_ : unit -> unit) =
        C.Sched.fork_cancellable (fun () ->
            for _ = 1 to 5 do
              incr safe_steps;
              C.Sched.yield ()
            done)
      in
      ());
  Alcotest.(check int) "non-killable fiber untouched" 5 !safe_steps;
  Alcotest.(check int) "killable fiber unwound once" 1 !killable_unwound

(* Chaos through the async I/O runner: same seed, same bytes. *)
let aio_chaos_deterministic () =
  let run () =
    let loop = C.Evloop.create () in
    let ic = C.Chan.make_ic_lazy loop ~latency:10 [ "a"; "b"; "c" ] in
    let oc = C.Chan.make_oc loop in
    let chaos =
      {
        (C.Sched.Chaos.default ~seed:21) with
        C.Sched.Chaos.delay_rate = 0.3;
        spurious_rate = 0.2;
      }
    in
    C.Aio.run_async ~chaos loop (fun () -> C.Aio.copy ic oc);
    C.Chan.contents oc
  in
  let a = run () and b = run () in
  Alcotest.(check string) "double run byte-identical" a b;
  Alcotest.(check string) "nothing lost under chaos" "a\nb\nc\n" a

(* Every scheduling decision of a run, pinned across rewrites of the
   scheduler: plain and cancellable forks, yields, [Mvar] hand-offs with
   parked takers and putters, [Evloop] sleeps, a cancel, and nurseries
   (one joined, one cancelled with its children parked), under each
   policy and twenty chaos seeds with high injection rates.  Each step
   and each unwind appends to [log]. *)
let pin_workload ~policy ~seed log =
  let note fmt = Printf.bprintf log (fmt ^^ ";") in
  let loop = C.Evloop.create () in
  let sleep d = C.Sched.suspend (fun r -> C.Evloop.after loop ~delay:d r) in
  let traced name f =
    match f () with
    | () -> note "%s:end" name
    | exception e ->
        note "%s:%s" name (Printexc.to_string e);
        raise e
  in
  let chaos =
    {
      (C.Sched.Chaos.default ~seed) with
      C.Sched.Chaos.kill_rate = 0.05;
      delay_rate = 0.25;
      max_delay = 5;
      reorder_rate = 0.3;
      spurious_rate = 0.1;
    }
  in
  C.Sched.run ~policy ~chaos
    ~clock:(fun () -> C.Evloop.now loop)
    ~idle:(fun () -> C.Evloop.advance_once loop)
    (fun () ->
      let mv = C.Mvar.create_empty () in
      let producer =
        C.Sched.fork_cancellable (fun () ->
            C.Sched.set_killable true;
            traced "p" (fun () ->
                for i = 1 to 8 do
                  C.Mvar.put mv i;
                  note "p%d" i
                done))
      in
      for c = 1 to 2 do
        let (_ : unit -> unit) =
          C.Sched.fork_cancellable (fun () ->
              C.Sched.set_killable (c = 1);
              traced (Printf.sprintf "c%d" c) (fun () ->
                  for _ = 1 to 4 do
                    let v = C.Mvar.take mv in
                    note "c%d<%d" c v;
                    if v mod 3 = 0 then sleep (v * 10) else C.Sched.yield ()
                  done))
        in
        ()
      done;
      C.Sched.fork (fun () ->
          for j = 1 to 3 do
            note "y%d@%d" j (C.Evloop.now loop);
            C.Sched.yield ()
          done);
      C.Sched.fork (fun () ->
          sleep 25;
          note "cancel-p@%d" (C.Evloop.now loop);
          producer ());
      let doomed =
        C.Sched.fork_cancellable (fun () ->
            traced "scope" (fun () ->
                Nursery.run (fun n ->
                    let hold = C.Mvar.create_empty () in
                    for i = 1 to 4 do
                      Nursery.fork n (fun () ->
                          traced (Printf.sprintf "h%d" i) (fun () ->
                              if i mod 2 = 0 then C.Sched.yield ();
                              C.Mvar.take hold))
                    done;
                    sleep 60)))
      in
      Nursery.run (fun n ->
          for i = 1 to 5 do
            Nursery.fork n (fun () ->
                traced (Printf.sprintf "k%d" i) (fun () ->
                    for j = 1 to 3 do
                      note "k%d.%d@%d" i j (C.Evloop.now loop);
                      if j = 2 then sleep (i * 7) else C.Sched.yield ()
                    done))
          done;
          Nursery.join n);
      note "joined@%d" (C.Evloop.now loop);
      doomed ());
  note "switches=%d" (C.Sched.stats_switches ());
  match C.Sched.chaos_stats () with
  | Some s ->
      note "k%d/d%d/r%d/s%d" s.C.Sched.Chaos.kills s.delays s.reorders s.spurious
  | None -> note "no-chaos"

let sched_decisions_pinned () =
  let log = Buffer.create 65536 in
  List.iter
    (fun policy ->
      for seed = 1 to 20 do
        pin_workload ~policy ~seed log;
        Buffer.add_char log '\n'
      done)
    [ C.Sched.Fifo; C.Sched.Lifo ];
  Alcotest.(check string) "MD5 over run order and chaos counters"
    "3236a456d567c67c9f2d386073bda4c2"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* ---------------- allocation ceilings ---------------- *)

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  f ();
  let c = Gc.minor_words () in
  c -. b -. (b -. a)

(* Words per repetition of [body n] between n = 1000 and n = 5000
   repetitions, so each run's set-up cancels out. *)
let words_per body =
  let w1 = minor_words (fun () -> body 1_000)
  and w2 = minor_words (fun () -> body 5_000) in
  (w2 -. w1) /. 4_000.

let check_ceiling what words ceiling =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words <= %d" what words ceiling)
    true
    (words <= float_of_int ceiling)

(* The ceilings are the measured figures; the scheduler's own share is
   its run-queue entries and its waiters, its handlers being allocated
   once per run.  A yield is the continuation and one [Continue]
   entry. *)
let alloc_yield () =
  let words =
    words_per (fun n ->
        C.Sched.run (fun () ->
            for _ = 1 to n do
              C.Sched.yield ()
            done))
  in
  check_ceiling "yield" words 6

(* The supervised server's sleep: park, and let a timer resume.  The
   [Suspend] value and the caller's closure, the continuation, the
   handler closure over the callback, the waiter, the resumer and one
   [Continue] entry. *)
let alloc_suspend_evloop () =
  let words =
    words_per (fun n ->
        let loop = C.Evloop.create () in
        C.Sched.run
          ~idle:(fun () -> C.Evloop.advance_once loop)
          (fun () ->
            for _ = 1 to n do
              C.Sched.suspend (fun r -> C.Evloop.after loop ~delay:1 r)
            done))
  in
  check_ceiling "suspend/resume through Evloop" words 29

(* The [Fork_cancellable] value, the continuation, the child's control
   cell, its cancel handle, the [Some] that makes it current, one
   [Continue] entry and the stack's handler closure. *)
let alloc_fork_cancellable () =
  let words =
    words_per (fun n ->
        C.Sched.run (fun () ->
            for _ = 1 to n do
              let (_ : unit -> unit) = C.Sched.fork_cancellable (fun () -> ()) in
              ()
            done))
  in
  check_ceiling "fork_cancellable plus finish" words 27

(* A [fork_cancellable] plus the child's link in the scope, its body
   closure and its [set_killable] effect. *)
let alloc_nursery_child () =
  let words =
    words_per (fun n ->
        C.Sched.run (fun () ->
            Nursery.run (fun nu ->
                for _ = 1 to n do
                  Nursery.fork nu (fun () -> ());
                  Nursery.join nu
                done)))
  in
  check_ceiling "nursery child" words 43

(* A long-lived nursery keeps no record of a child that has finished. *)
let nursery_tracks_live_children_only () =
  let at = Array.make 2 0 in
  C.Sched.run (fun () ->
      Nursery.run (fun nu ->
          for i = 1 to 10_000 do
            Nursery.fork nu (fun () -> C.Sched.yield ());
            Nursery.join nu;
            if i = 100 then at.(0) <- Obj.reachable_words (Obj.repr nu);
            if i = 10_000 then at.(1) <- Obj.reachable_words (Obj.repr nu)
          done));
  Alcotest.(check int) "reachable words at child 10,000 = at child 100" at.(0)
    at.(1)

let alloc_suite =
  [
    test "yield" alloc_yield;
    test "suspend/resume through Evloop" alloc_suspend_evloop;
    test "fork_cancellable plus finish" alloc_fork_cancellable;
    test "nursery child" alloc_nursery_child;
    test "nursery tracks live children only" nursery_tracks_live_children_only;
  ]

let suite =
  [
    test "eff match_with deep" eff_match_with;
    test "eff value handler" eff_value_handler;
    test "eff discontinue" eff_discontinue;
    test "eff unhandled" eff_unhandled;
    test "eff one_shot" eff_one_shot;
    test "eff protect" eff_protect;
    test "sched runs all forks" sched_runs_all;
    test "sched fifo" sched_fifo_order;
    test "sched lifo" sched_lifo_order;
    test "sched yield interleaves" sched_yield_interleaves;
    test "sched nested fork" sched_nested_fork;
    test "sched suspend/resume" sched_suspend_resume;
    test "sched resumer once" sched_resumer_once;
    test "sched cancel suspended" sched_cancel_suspended;
    test "sched cancel completed" sched_cancel_completed;
    test "sched cancel before suspend" sched_cancel_before_suspend;
    test "mvar basics" mvar_basic;
    test "mvar blocking take" mvar_blocking_take;
    test "mvar blocking put" mvar_blocking_put;
    test "mvar cancelled taker purged" mvar_cancelled_taker_purged;
    test "mvar cancelled putter purged" mvar_cancelled_putter_purged;
    test "evloop ordering" evloop_ordering;
    test "evloop same instant" evloop_same_instant;
    test "evloop advance_until" evloop_advance_until;
    test "evloop negative delay" evloop_negative_delay;
    test "chan feed and read" chan_feed_and_read;
    test "chan closed" chan_closed;
    test "chan lazy latency" chan_lazy_latency;
    test "chan blocked forever" chan_blocked_forever;
    test "aio copy both runners" aio_copy_both_runners;
    test "aio async overlaps" aio_async_overlaps;
    test "aio deadlock detected" aio_deadlock_detected;
    test "aio with mvar" aio_mix_with_mvar;
    test "aio timeout cancels copy" aio_timeout_cancels_copy;
    test "aio timeout completes" aio_timeout_completes;
    test "aio ctl edges both runners" aio_ctl_edges;
    test "aio cancel races pending resume" aio_cancel_races_pending_resume;
    test "sched chaos deterministic" sched_chaos_deterministic;
    test "sched chaos kills killable only" sched_chaos_kills_killable_only;
    test "aio chaos deterministic" aio_chaos_deterministic;
    test "sched decisions pinned" sched_decisions_pinned;
  ]
