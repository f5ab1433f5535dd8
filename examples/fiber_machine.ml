(* The runtime model (§5): compile a program to the fiber machine,
   watch the cost counters, and unwind a cross-fiber backtrace with the
   DWARF tables (§5.5).

   Run with: dune exec examples/fiber_machine.exe *)

module F = Retrofit_fiber
module D = Retrofit_dwarf

let () =
  print_endline "-- compile and disassemble fib --";
  let compiled = F.Compile.compile (F.Programs.fib ~n:10) in
  print_string (F.Compile.disassemble compiled);

  print_endline "-- the same program under both runtimes --";
  List.iter
    (fun cfg ->
      let outcome, counters = F.Machine.run cfg compiled in
      match outcome with
      | F.Machine.Done v ->
          Printf.printf "%-10s fib 10 = %d  instructions=%d checks=%d growths=%d\n"
            (F.Config.name cfg) v
            (Retrofit_util.Counter.(value counters Instructions))
            (Retrofit_util.Counter.(value counters Overflow_check))
            (Retrofit_util.Counter.(value counters Stack_grow))
      | _ -> print_endline "unexpected outcome")
    [ F.Config.stock; F.Config.mc ];

  print_endline "\n-- effect handling allocates, switches and frees fibers --";
  let compiled = F.Compile.compile (F.Programs.effect_roundtrip ~iters:1000) in
  let _, counters = F.Machine.run F.Config.mc compiled in
  List.iter
    (fun name ->
      Printf.printf "  %-16s %d\n" (Retrofit_util.Counter.to_string name)
        (Retrofit_util.Counter.value counters name))
    Retrofit_util.Counter.[ Fiber_alloc; Stack_cache_hit; Malloc; Perform; Resume; Fiber_free ];

  print_endline "\n-- Fig 1d: DWARF backtrace from inside the callback --";
  let compiled = F.Compile.compile F.Programs.meander in
  let table = D.Table.build compiled in
  let shown = ref false in
  let hook m =
    let f = F.Machine.current_fiber m in
    if f.F.Fiber.regs.fn >= 0 then begin
      let name = (F.Machine.compiled m).F.Compile.fns.(f.regs.fn).F.Compile.fn_name in
      if name = "c_to_ocaml" && not !shown then begin
        shown := true;
        print_string (D.Unwind.format (D.Unwind.backtrace table m));
        print_endline "(shadow-stack ground truth:)";
        List.iter (Printf.printf "  %s\n") (F.Machine.shadow_backtrace m)
      end
    end
  in
  ignore
    (F.Machine.run ~cfuns:F.Programs.standard_cfuns ~on_call:hook F.Config.mc compiled)

(* §6.3.4: "it is possible to get a backtrace snapshot of all current
   requests" — park a few requests on an effect and snapshot each
   suspended continuation through the DWARF tables. *)
let () =
  print_endline "\n-- backtraces of all suspended requests (§6.3.4) --";
  let compiled = F.Compile.compile (F.Programs.suspended_requests ~n:3) in
  let table = D.Table.build compiled in
  let list_pending ctx _args =
    let m = ctx.F.Machine.machine in
    List.iter
      (fun (kid, entries) ->
        Printf.printf "request %d:\n%s" kid (D.Unwind.format entries))
      (D.Unwind.snapshot_continuations table m);
    List.length (F.Machine.live_continuations m)
  in
  match F.Machine.run ~cfuns:[ ("list_pending", list_pending) ] F.Config.mc compiled with
  | F.Machine.Done n, _ -> Printf.printf "%d requests in flight\n" n
  | _ -> print_endline "unexpected outcome"
