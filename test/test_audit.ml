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
let run_broken pol ~at ~break =
  let cfg = F.Config.with_policy pol F.Config.mc in
  let a = F.Machine.audit () in
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
    (List.length (F.Machine.audit_violations a))
    (F.Machine.audit_violation_count a);
  F.Machine.audit_violations a

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
      let a = F.Machine.audit () in
      let outcome, _ =
        F.Machine.run ~audit:a (F.Config.with_policy pol F.Config.mc) program
      in
      Alcotest.(check bool)
        (pname ^ " result") true
        (outcome = F.Machine.Done expected_result);
      Alcotest.(check bool) (pname ^ " audited") true (F.Machine.audit_checks a > 0);
      Alcotest.check violations (pname ^ " clean") [] (F.Machine.audit_violations a))
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
        let a = F.Machine.audit () in
        let audited = minor_words (run (Some a)) in
        Alcotest.(check bool) (pname ^ " clean") true (F.Machine.audit_ok a);
        (audited -. bare, F.Machine.audit_checks a)
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
  ]
