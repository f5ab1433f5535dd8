(* The runtime invariant auditor fires.  Each case breaks one invariant
   for exactly one machine step through the [on_step] hook, under every
   stack policy, and pins the violations the auditor records: the
   invariant name and the detail string.  The hook runs before the
   step's audit pass and undoes the previous step's damage first, so
   one pass sees the broken state and the program itself runs to its
   normal result.  The broken field always belongs to a fiber the
   intervening instruction does not touch.

   The last cases pin the number of audit passes on two multishot fuzz
   programs, so a change to the auditor's cost cannot quietly change
   where it audits. *)

module F = Retrofit_fiber
module C = Retrofit_conformance

let test name f = Alcotest.test_case name `Quick f

let policies = F.Stack_policy.all

(* counter_effect ~upto:2 evaluates to 2 + 1 + 0: one handler fiber
   (id 1) under the main fiber (id 0), two performs, two resumes. *)
let program = F.Compile.compile (F.Programs.counter_effect ~upto:2)

let expected_result = 3

(* The first step at which [at] holds, [break] damages the machine and
   returns the undo; the next step's hook undoes it.  Returns the
   recorded violations. *)
let run_broken ?(audit = F.Audit.audit) ?(config = F.Config.mc) pol ~at ~break =
  let cfg = F.Config.with_policy pol config in
  let a = audit () in
  let fired = ref false and undo = ref None in
  let on_step m =
    (match !undo with
    | Some u ->
        u ();
        undo := None
    | None -> ());
    if (not !fired) && at m then begin
      fired := true;
      undo := Some (break m)
    end
  in
  let outcome, _ = F.Machine.run ~on_step ~audit:a cfg program in
  Alcotest.(check bool) "the break fired" true !fired;
  (match outcome with
  | F.Machine.Done v -> Alcotest.(check int) "result" expected_result v
  | F.Machine.Uncaught (l, _) -> Alcotest.failf "uncaught %s" l
  | F.Machine.Fatal msg -> Alcotest.failf "fatal: %s" msg);
  Alcotest.(check int) "violation count"
    (List.length (F.Audit.audit_violations a))
    (F.Audit.audit_violation_count a);
  F.Audit.audit_violations a

(* Inside the handled body: the running fiber is the handler fiber and
   the main fiber, its parent, is suspended. *)
let in_body m =
  let f = F.Machine.current_fiber m in
  f.F.Fiber.handler <> None && f.F.Fiber.parent <> None

let main_fiber m = Option.get (F.Machine.fiber_by_id m 0)

(* Inside an effect clause: one live continuation holds the captured
   handler fiber. *)
let captured m = F.Machine.live_continuations m <> []

let violations = Alcotest.(list (pair string string))

let clean () =
  List.iter
    (fun (pname, pol) ->
      let a = F.Audit.audit () in
      let outcome, _ =
        F.Machine.run ~audit:a (F.Config.with_policy pol F.Config.mc) program
      in
      Alcotest.(check bool)
        (pname ^ " result") true
        (outcome = F.Machine.Done expected_result);
      Alcotest.(check bool) (pname ^ " audited") true (F.Audit.audit_checks a > 0);
      Alcotest.check violations (pname ^ " clean") [] (F.Audit.audit_violations a))
    policies

let liveness m =
  let f = main_fiber m in
  f.F.Fiber.live <- false;
  ( (fun () -> f.F.Fiber.live <- true),
    [ ("liveness", "fiber 0 registered but marked dead") ] )

let parent_word m =
  let f = F.Machine.current_fiber m in
  let top = F.Segment.top f.F.Fiber.seg in
  let old = F.Segment.read f.F.Fiber.seg (top - 1) in
  F.Segment.write f.F.Fiber.seg (top - 1) 999;
  ( (fun () -> F.Segment.write f.F.Fiber.seg (top - 1) old),
    [
      ( "layout-parent",
        Printf.sprintf "fiber %d: parent word 999 but fiber record says 0" f.F.Fiber.id );
    ] )

let parent_pointer m =
  let f = F.Machine.current_fiber m in
  let old = f.F.Fiber.parent in
  f.F.Fiber.parent <- None;
  ( (fun () -> f.F.Fiber.parent <- old),
    [
      ( "layout-parent",
        Printf.sprintf "fiber %d: parent word 0 but fiber record says -1" f.F.Fiber.id );
    ] )

(* Below the base, so the frame and trap checks (which compare against
   sp from above) still hold. *)
let bad_sp m =
  let f = main_fiber m in
  let old = f.F.Fiber.regs.sp in
  let base = F.Segment.base f.F.Fiber.seg and top = F.Segment.top f.F.Fiber.seg in
  f.F.Fiber.regs.sp <- base - 1;
  ( (fun () -> f.F.Fiber.regs.sp <- old),
    [
      ("layout-sp", Printf.sprintf "fiber 0: sp %d outside [%d, %d]" (base - 1) base top);
    ] )

let bad_cfa m =
  let f = main_fiber m in
  let old = f.F.Fiber.regs.cfa in
  let top = F.Segment.top f.F.Fiber.seg in
  f.F.Fiber.regs.cfa <- top + 1;
  ( (fun () -> f.F.Fiber.regs.cfa <- old),
    [
      ( "layout-cfa",
        Printf.sprintf "fiber 0: cfa %d outside [sp=%d, %d]" (top + 1) f.F.Fiber.regs.sp
          top );
    ] )

(* The main fiber's only trap is its bottom frame; its mirror entry
   moves one word up. *)
let bad_trap m =
  let f = main_fiber m in
  Alcotest.(check int) "main has one trap" 1 (F.Fiber.trap_count f);
  let addr = F.Fiber.trap_addr f 0 in
  Retrofit_util.Ivec.set f.F.Fiber.traps 0 (addr + 1);
  ( (fun () -> Retrofit_util.Ivec.set f.F.Fiber.traps 0 addr),
    [
      ( "trap-chain",
        Printf.sprintf "fiber 0: trap 0 at address %d but mirror says %d" addr
          (addr + 1) );
    ] )

(* A flat copy of the main fiber's committed stack with the same top
   and contents but a base 16 words below its limit: every address the
   fiber uses stays valid, so only the base index notices the swap. *)
let bad_seg m =
  let f = main_fiber m in
  let old = f.F.Fiber.seg in
  let lo = F.Segment.limit old and top = F.Segment.top old in
  let moved = F.Segment.create ~base:(lo - 16) ~size:(top - lo + 16) in
  F.Segment.blit_into ~src:old ~dst:moved;
  f.F.Fiber.seg <- moved;
  ( (fun () -> f.F.Fiber.seg <- old),
    [ ("addr-index", "fiber 0 missing from the base index") ] )

(* Re-link the captured fiber (the tail of its chain, so its parent
   must be none) onto the running fiber, word and record together, as
   a resume would: the layout agrees but the chain is broken. *)
let bad_chain m =
  let kid, f =
    match F.Machine.live_continuations m with
    | [ (kid, [ f ]) ] -> (kid, f)
    | _ -> Alcotest.fail "expected one continuation holding one fiber"
  in
  let cur = F.Machine.current_fiber m in
  let top = F.Segment.top f.F.Fiber.seg in
  let old_word = F.Segment.read f.F.Fiber.seg (top - 1) and old = f.F.Fiber.parent in
  f.F.Fiber.parent <- Some cur;
  F.Segment.write f.F.Fiber.seg (top - 1) cur.F.Fiber.id;
  ( (fun () ->
      f.F.Fiber.parent <- old;
      F.Segment.write f.F.Fiber.seg (top - 1) old_word),
    [
      ( "cont-chain",
        Printf.sprintf "continuation %d: fiber %d parent link broken" kid f.F.Fiber.id );
    ] )

(* After the first resume the body runs again and the first
   continuation's slot is spent and free.  The main fiber, suspended
   under the body, is pushed into that slot, as if spending it had
   kept its chain. *)
let slot_free m =
  in_body m && F.Machine.free_cont_slots m > 0

let spent_slot_holds_fiber m =
  let slot = Retrofit_util.Ivec.top (F.Machine.Testing.free_slots m) in
  let fibers = F.Machine.Testing.slot_fibers m slot in
  Retrofit_util.Vec.push fibers (main_fiber m);
  ( (fun () -> ignore (Retrofit_util.Vec.pop fibers)),
    [
      ( "cont-free",
        Printf.sprintf "spent continuation slot %d still holds 1 fibers" slot );
    ] )

(* The live continuation's slot is pushed on the free list, where the
   next perform would capture into it and overwrite its chain. *)
let live_slot_freed m =
  let slot =
    match F.Machine.live_continuations m with
    | [ (kid, _) ] -> F.Machine.Testing.slot_of_cont kid
    | _ -> Alcotest.fail "expected one continuation"
  in
  let free = F.Machine.Testing.free_slots m in
  Retrofit_util.Ivec.push free slot;
  ( (fun () -> ignore (Retrofit_util.Ivec.pop free)),
    [
      ( "cont-free",
        Printf.sprintf "continuation slot %d is live but on the free list" slot );
    ] )

let fires name ~at break =
  test name (fun () ->
      List.iter
        (fun (pname, pol) ->
          let expected = ref [] in
          let got =
            run_broken pol ~at ~break:(fun m ->
                let undo, e = break m in
                expected := e;
                undo)
          in
          Alcotest.check violations pname !expected got)
        policies)

(* A pass that finds nothing allocates nothing: what an audited run
   allocates beyond the same run unaudited (the auditor's record and its
   visitors) does not grow with the number of passes. *)
let passes_allocate_nothing () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (pname, pol) ->
      let cfg = F.Config.with_policy pol F.Config.mc in
      let extra iters =
        let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters) in
        let run audit () =
          ignore (F.Machine.run ~cfuns:F.Programs.standard_cfuns ?audit cfg compiled)
        in
        let bare = minor_words (run None) in
        let a = F.Audit.audit () in
        let audited = minor_words (run (Some a)) in
        Alcotest.(check bool) (pname ^ " clean") true (F.Audit.audit_ok a);
        (audited -. bare, F.Audit.audit_checks a)
      in
      let few, few_checks = extra 5 and many, many_checks = extra 100 in
      Alcotest.(check bool) (pname ^ " more passes") true (many_checks > 10 * few_checks);
      Alcotest.(check (float 0.)) (pname ^ " extra words") few many)
    policies

(* Audit passes per program are a function of the step count and the
   fixed schedule alone. *)
let pinned_checks idx expected () =
  let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:3 idx) in
  let r = C.Fiber_backend.run ~config:(F.Config.with_multishot true F.Config.mc) p in
  Alcotest.(check int) "audit passes" expected r.C.Fiber_backend.audit_checks;
  Alcotest.(check int) "violations" 0 (List.length r.C.Fiber_backend.audit_violations)

(* The audit work on the same two programs: the fibers, continuation
   slots and cached segments the passes examined. *)
let pinned_visits idx expected () =
  let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:3 idx) in
  let r = C.Fiber_backend.run ~config:(F.Config.with_multishot true F.Config.mc) p in
  Alcotest.(check int) "audit visits" expected r.C.Fiber_backend.audit_visits;
  Alcotest.(check int) "violations" 0 (List.length r.C.Fiber_backend.audit_violations)

(* A hook takes the main fiber while it runs, at the first step, and
   breaks it at the third step inside the handled body, where it is
   suspended and the machine has not touched it since switching away.
   Neither the step predicate nor the break hands the fiber out
   again. *)
let kept_reference name break expected =
  test name (fun () ->
      List.iter
        (fun (pname, pol) ->
          let kept = ref None and in_body = ref 0 in
          let at m =
            if !kept = None then kept := Some (F.Machine.current_fiber m);
            if F.Machine.live_fiber_count m = 2 && F.Machine.cont_slots m = 0 then
              incr in_body;
            !in_body = 3
          in
          let got =
            run_broken pol ~at ~break:(fun _ ->
                let f = Option.get !kept in
                Alcotest.(check int) "kept the main fiber" 0 f.F.Fiber.id;
                break f)
          in
          Alcotest.check violations pname expected got)
        policies)

let kept_dead =
  kept_reference "a fiber kept from an earlier step, marked dead"
    (fun f ->
      f.F.Fiber.live <- false;
      fun () -> f.F.Fiber.live <- true)
    [ ("liveness", "fiber 0 registered but marked dead") ]

let kept_handler_word =
  kept_reference "a fiber kept from an earlier step, handler word overwritten"
    (fun f ->
      let seg = f.F.Fiber.seg in
      let addr = F.Segment.top seg - 2 in
      let old = F.Segment.read seg addr in
      F.Segment.write seg addr 5;
      fun () -> F.Segment.write seg addr old)
    [
      ( "layout-handler",
        "fiber 0: no handler installed but handler word is 5 and no callback boundary \
         is live" );
    ]

let kept_moved =
  kept_reference "a fiber kept from an earlier step, moved behind the index"
    (fun f ->
      let old = f.F.Fiber.seg in
      let lo = F.Segment.limit old and top = F.Segment.top old in
      let moved = F.Segment.create ~base:(lo - 16) ~size:(top - lo + 16) in
      F.Segment.blit_into ~src:old ~dst:moved;
      f.F.Fiber.seg <- moved;
      fun () -> f.F.Fiber.seg <- old)
    [ ("addr-index", "fiber 0 missing from the base index") ]

(* The running handler fiber, three steps into the body (so it also
   ran at the last pass), moves to a copy of its stack behind the
   index's back. *)
let running_moved =
  test "addr-index: the running fiber moved behind the index" (fun () ->
      List.iter
        (fun (pname, pol) ->
          let steps = ref 0 in
          let at m =
            if in_body m then incr steps;
            !steps = 3
          in
          let expected = ref [] in
          let got =
            run_broken pol ~at ~break:(fun m ->
                let f = F.Machine.current_fiber m in
                let old = f.F.Fiber.seg in
                let lo = F.Segment.limit old and top = F.Segment.top old in
                let moved = F.Segment.create ~base:(lo - 16) ~size:(top - lo + 16) in
                F.Segment.blit_into ~src:old ~dst:moved;
                f.F.Fiber.seg <- moved;
                expected :=
                  [
                    ( "addr-index",
                      Printf.sprintf "fiber %d missing from the base index" f.F.Fiber.id );
                  ];
                fun () -> f.F.Fiber.seg <- old)
          in
          Alcotest.check violations pname !expected got)
        policies)

(* Under segmented-COW, multishot: once the handler fiber (id 1) is
   captured, a copy of its continuation (fiber 2) shares its head chunk.
   One step later the parent word in that chunk is poked in place, as a
   copy-on-write that failed to separate them would write it, while the
   main fiber runs the effect clause; the step after, it is put back.
   Neither sharer runs or is handed out, and both must be reported. *)
let shared_chunk_poked () =
  let config = F.Config.with_multishot true F.Config.mc in
  let pol = List.assoc "segmented-cow" policies in
  let step = ref 0 and cloned_at = ref (-1) in
  let at m =
    incr step;
    if !cloned_at < 0 && F.Machine.live_fiber_count m = 2 && F.Machine.cont_slots m = 1
    then begin
      Alcotest.(check int) "the copy's value" 1
        (F.Machine.Testing.slot_of_cont (F.Machine.Testing.clone_continuation m 0));
      cloned_at := !step
    end;
    !cloned_at >= 0 && !step = !cloned_at + 1
  in
  let break m =
    let addr = F.Machine.Testing.fiber_top m 1 - 1 in
    F.Machine.Testing.poke m addr 999;
    ( (fun () -> F.Machine.Testing.poke m addr (-1)),
      [
        ("layout-parent", "fiber 2: parent word 999 but fiber record says -1");
        ("layout-parent", "fiber 1: parent word 999 but fiber record says -1");
      ] )
  in
  let expected = ref [] in
  let got =
    run_broken ~config pol ~at ~break:(fun m ->
        let undo, e = break m in
        expected := e;
        undo)
  in
  Alcotest.check violations "both sharers" !expected got

(* Each fires case, run with the change-driven auditor and with one that
   marks everything changed at every pass, under every policy: the same
   reports and the same number of passes. *)
let fires_cases =
  [
    (in_body, liveness);
    (in_body, parent_word);
    (in_body, parent_pointer);
    (in_body, bad_sp);
    (in_body, bad_cfa);
    (in_body, bad_trap);
    (in_body, bad_seg);
    (captured, bad_chain);
    (slot_free, spent_slot_holds_fiber);
    (captured, live_slot_freed);
  ]

let counted make =
  let last = ref None in
  let audit () =
    let a = make () in
    last := Some a;
    a
  in
  (audit, fun () -> F.Audit.audit_checks (Option.get !last))

let fires_match_full () =
  List.iter
    (fun (at, break) ->
      List.iter
        (fun (pname, pol) ->
          let run make =
            let audit, checks = counted make in
            let v = run_broken ~audit pol ~at ~break:(fun m -> fst (break m)) in
            (v, checks ())
          in
          let v, n = run F.Audit.audit and v', n' = run F.Audit.Testing.full_audit in
          Alcotest.check violations pname v' v;
          Alcotest.(check int) (pname ^ " passes") n' n)
        policies)
    fires_cases

(* A live fiber's id other than the running one's, if any, scanning up
   from a random id no higher than [hi]; found through accessors that
   hand nothing out. *)
let pick_fiber m rng ~hi =
  let cur = F.Machine.current_id m in
  let live id =
    match F.Machine.Testing.fiber_top m id with _ -> true | exception Not_found -> false
  in
  let rec scan id k =
    if k > hi then cur
    else if id <> cur && live id then id
    else scan ((id + 1) mod (hi + 1)) (k + 1)
  in
  scan (Retrofit_util.Rng.int rng (hi + 1)) 0

(* Seed 3 multishot programs 0-300 under every policy, with DWARF
   sampling on calls (which reads fibers through the machine's
   accessors), audited both ways: once as they are, and once with the
   parent word of a live fiber, usually a suspended one, broken for one
   step at a random step inside the every-step part of the schedule.  The break
   is recorded as the machine records its own writes and hands nothing
   out, so the change-driven pass must find it on its own: the two
   auditors must report the same, the break at least once.  A
   change-driven pass that finds something the full walk does not is
   reported as [audit-redo], so a false positive fails here too. *)
let fuzz_match_full () =
  for idx = 0 to 300 do
    let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:3 idx) in
    match F.Compile.compile p with
    | exception F.Compile.Error _ -> ()
    | prog ->
        List.iteri
          (fun pi (pname, pol) ->
            let config =
              F.Config.with_policy pol (F.Config.with_multishot true F.Config.mc)
            in
            (* [break] is the step to break at and the seed of the
               break's choices. *)
            let run ?break a =
              let check =
                Retrofit_dwarf.Validate.checker (Retrofit_dwarf.Table.build prog)
              in
              let rng = Retrofit_util.Rng.create idx and probes = ref 0 in
              let on_call m =
                if !probes < 100 && Retrofit_util.Rng.int rng 8 = 0 then begin
                  incr probes;
                  ignore (check m)
                end
              in
              let steps = ref 0 and hi = ref 0 and undo = ref None in
              let on_step m =
                incr steps;
                hi := max !hi (F.Machine.current_id m);
                (match !undo with
                | Some u ->
                    u ();
                    undo := None
                | None -> ());
                match break with
                | Some (at, seed) when !steps = at ->
                    let r = Retrofit_util.Rng.create seed in
                    let id = pick_fiber m r ~hi:!hi in
                    let addr = F.Machine.Testing.fiber_top m id - 1 in
                    let old = F.Machine.read_mem m addr in
                    F.Machine.Testing.write_word m addr (-7);
                    undo := Some (fun () -> F.Machine.Testing.write_word m addr old)
                | _ -> ()
              in
              let outcome, _ =
                F.Machine.run ~cfuns:(C.Fiber_backend.cfuns prog) ~on_call ~on_step
                  ~audit:a ~fuel:2_000_000 config prog
              in
              (outcome, F.Audit.audit_violations a, F.Audit.audit_checks a, !steps)
            in
            let o, v, n, steps = run (F.Audit.audit ())
            and o', v', n', _ = run (F.Audit.Testing.full_audit ()) in
            let where = Printf.sprintf "#%d %s" idx pname in
            Alcotest.(check bool) (where ^ " outcome") true (o = o');
            Alcotest.check violations where v' v;
            Alcotest.(check int) (where ^ " passes") n' n;
            if steps > 1 then begin
              let seed = (idx * 4) + pi in
              let r = Retrofit_util.Rng.create seed in
              let at = 1 + Retrofit_util.Rng.int r (min (steps - 1) 50_000) in
              let break = (at, seed) in
              let _, v, n, _ = run ~break (F.Audit.audit ())
              and _, v', n', _ = run ~break (F.Audit.Testing.full_audit ()) in
              let where = Printf.sprintf "#%d %s broken at step %d" idx pname at in
              Alcotest.(check bool) (where ^ " found") true (v <> []);
              Alcotest.check violations where v' v;
              Alcotest.(check int) (where ^ " passes") n' n
            end)
          policies
  done

(* The program whose audit was quadratic in its leaked continuations
   (11.45k by the end): about 420k passes, each examining what changed. *)
let quadratic_gated () =
  let p = C.Gen.program_of_seed (C.Fuzz.prog_seed ~seed:3 1695) in
  let r = C.Fiber_backend.run ~config:(F.Config.with_multishot true F.Config.mc) p in
  Alcotest.(check bool) "runs out of fuel" true
    (r.C.Fiber_backend.outcome = C.Outcome.Fuel_out);
  Alcotest.(check int) "audit passes" 419_784 r.audit_checks;
  Alcotest.(check int) "audit visits" 545_104 r.audit_visits;
  Alcotest.(check int) "violations" 0 (List.length r.audit_violations)

(* Under segmented-COW, one-shot: once the handler fiber (id 1) is
   captured, a copy of its continuation (fiber 2, in a slot the program
   never resumes) shares its head chunk, and the chunk's reference count
   is then set to 1, as a refcounting bug would leave it.  The resume
   that follows writes fiber 1's parent word in place, so fiber 2's word
   changes with it.  A walk over all live state reports fiber 2 from that
   step on.  The change-driven auditor examines only what the machine
   changed, and fiber 2 is never changed again: it reports nothing.
   This pins that limit (DESIGN.md section 7): the chunk counts are
   trusted, and only a write that bypasses copy-on-write (see
   [shared_chunk_poked]) is caught at the step. *)
let refcount_broken () =
  let pol = List.assoc "segmented-cow" policies in
  let run audit =
    let a = audit () and fired = ref false in
    let on_step m =
      if
        (not !fired)
        && F.Machine.cont_slots m = 1
        && F.Machine.free_cont_slots m = 0
        && F.Machine.live_fiber_count m = 2
      then begin
        fired := true;
        Alcotest.(check int) "the copy's value" 1
          (F.Machine.Testing.clone_continuation m 0);
        F.Machine.Testing.set_chunk_rc m (F.Machine.Testing.fiber_top m 1 - 1) 1
      end
    in
    let outcome, _ =
      F.Machine.run ~on_step ~audit:a (F.Config.with_policy pol F.Config.mc) program
    in
    Alcotest.(check bool) "result" true (outcome = F.Machine.Done expected_result);
    (F.Audit.audit_violation_count a, F.Audit.audit_violations a)
  in
  let n, v = run F.Audit.Testing.full_audit in
  Alcotest.(check int) "full walk: reports" 32 n;
  Alcotest.check violations "full walk: first report"
    [ ("layout-parent", "fiber 2: parent word 0 but fiber record says -1") ]
    [ List.hd v ];
  let n, v = run F.Audit.audit in
  Alcotest.(check int) "change-driven: reports" 0 n;
  Alcotest.check violations "change-driven: none" [] v

(* [performs] performs of E from under [depth] handlers that do not
   handle it, inside one outermost handler that does: every perform
   captures the same [depth] + 1 fibers into the same reused slot. *)
let deep_performs_program ~depth ~performs =
  let open F.Ir in
  F.Compile.compile
    {
      fns =
        [
          fn "dp_body" [ "u" ] (Repeat (Int performs, Perform ("E", Var "u")));
          fn "dp_nest" [ "d" ]
            (If
               ( Binop (Eq, Var "d", Int 0),
                 Call ("dp_body", [ Int 5 ]),
                 Handle
                   {
                     body_fn = "dp_nest";
                     body_args = [ Binop (Sub, Var "d", Int 1) ];
                     retc = "dp_ret";
                     exncs = [];
                     effcs = [ ("F", "dp_other") ];
                   } ));
          fn "dp_ret" [ "v" ] (Var "v");
          fn "dp_other" [ "x"; "k" ] (Continue (Var "k", Int 0));
          fn "dp_eff" [ "x"; "k" ] (Continue (Var "k", Var "x"));
          fn "main" []
            (Handle
               {
                 body_fn = "dp_nest";
                 body_args = [ Int depth ];
                 retc = "dp_ret";
                 exncs = [];
                 effcs = [ ("E", "dp_eff") ];
               });
        ];
      main = "main";
    }

(* The fibers a perform re-parents all name the slot that held them last
   time, now spent.  That slot is not re-walked for each of them, so
   doubling the depth doubles the audit work the performs add; walking
   it once per fiber would square it (222,043 visits at depth 64). *)
let deep_performs () =
  let visits depth =
    let a = F.Audit.audit () in
    let outcome, _ =
      F.Machine.run ~audit:a F.Config.mc (deep_performs_program ~depth ~performs:50)
    in
    Alcotest.(check bool) "ran to the end" true
      (match outcome with F.Machine.Done _ -> true | _ -> false);
    Alcotest.(check int) "violations" 0 (F.Audit.audit_violation_count a);
    F.Audit.audit_visits a
  in
  let v16 = visits 16 and v32 = visits 32 and v64 = visits 64 in
  Alcotest.(check (list int)) "visits at depth 16, 32, 64" [ 2_898; 4_722; 8_370 ]
    [ v16; v32; v64 ];
  Alcotest.(check int) "linear in depth" (2 * (v32 - v16)) (v64 - v32)

let suite =
  [
    test "unbroken program audits clean" clean;
    fires "liveness: dead flag on a live fiber" ~at:in_body liveness;
    fires "layout-parent: parent word" ~at:in_body parent_word;
    fires "layout-parent: parent pointer" ~at:in_body parent_pointer;
    fires "layout-sp: sp below the segment" ~at:in_body bad_sp;
    fires "layout-cfa: cfa above the segment" ~at:in_body bad_cfa;
    fires "trap-chain: mirror disagrees with memory" ~at:in_body bad_trap;
    fires "addr-index: segment moved behind the index" ~at:in_body bad_seg;
    fires "cont-chain: captured fiber re-linked" ~at:captured bad_chain;
    test "a passing pass allocates nothing" passes_allocate_nothing;
    test "multishot seed 3 #735 audit passes" (pinned_checks 735 5_026);
    test "multishot seed 3 #1093 audit passes" (pinned_checks 1093 150_675);
    fires "cont-free: spent slot still holds a fiber" ~at:slot_free spent_slot_holds_fiber;
    fires "cont-free: live slot on the free list" ~at:captured live_slot_freed;
    test "multishot seed 3 #735 audit visits" (pinned_visits 735 6_882);
    test "multishot seed 3 #1093 audit visits" (pinned_visits 1093 150_694);
    kept_dead;
    kept_handler_word;
    kept_moved;
    running_moved;
    test "segmented-cow: a poked shared word flags both sharers" shared_chunk_poked;
    test "fires cases: change-driven passes report as full ones" fires_match_full;
    Alcotest.test_case "seed 3 multishot 0-300: change-driven passes report as full ones"
      `Slow fuzz_match_full;
    Alcotest.test_case "multishot seed 3 #1695 audit visits" `Slow quadratic_gated;
    test "segmented-cow: a refcount bug waits until its victim is examined"
      refcount_broken;
    test "a perform through many handlers: audit work linear in depth" deep_performs;
  ]
