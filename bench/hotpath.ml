(* Hot-path microbenchmarks for the fiber machine (see DESIGN.md,
   "Hot-path complexity").

   Three scaling probes, each targeting a path that used to be
   accidentally quadratic:

   - deep-chain:  perform through a chain of [depth] non-matching
     handlers (Programs.effect_depth).  Capture links one fiber per
     hop; the per-hop cost must stay flat as the chain deepens.
   - callback-storm:  a C function calls back into OCaml by name from
     a program with [fillers] unrelated functions; the per-callback
     cost must stay flat as the program grows.
   - backtrace-load:  snapshot the DWARF backtrace of every suspended
     continuation with [n] requests parked; the per-backtrace cost
     must be (near) independent of the live-fiber count.

   Usage:
     hotpath.exe             full sizes, prints one table per probe
     hotpath.exe --smoke     tiny sizes, single measured run (CI gate) *)

module F = Retrofit_fiber
module D = Retrofit_dwarf
module B = Retrofit_harness.Bench

let smoke =
  match Array.to_list Sys.argv with
  | [ _ ] -> false
  | [ _; "--smoke" ] -> true
  | _ ->
      prerr_endline "usage: hotpath.exe [--smoke]";
      exit 2

let warmups = if smoke then 0 else 2
let runs = if smoke then 1 else 5

let header title cols =
  Printf.printf "\n%s\n" title;
  Printf.printf "  %-10s %14s\n" cols "ns/op"

let row size ns = Printf.printf "  %-10d %14.1f\n%!" size ns

let expect_done v (outcome, _) =
  match outcome with
  | F.Machine.Done got when got = v -> ()
  | F.Machine.Done got -> failwith (Printf.sprintf "expected Done %d, got Done %d" v got)
  | _ -> failwith "program failed"

(* ------------------------------------------------------------------ *)

let deep_chain () =
  let depths = if smoke then [ 2; 8 ] else [ 2; 8; 32; 128 ] in
  let hops_total = if smoke then 400 else 20_000 in
  header "deep handler chain: continuation capture, per fiber hop" "depth";
  List.iter
    (fun depth ->
      (* keep the total hop count constant so runs are comparable *)
      let iters = max 1 (hops_total / depth) in
      let compiled = F.Compile.compile (F.Programs.effect_depth ~depth ~iters) in
      let ns =
        B.per_op_ns ~warmups ~runs ~iters:(iters * depth) (fun () ->
            expect_done 0 (F.Machine.run F.Config.mc compiled))
      in
      row depth ns)
    depths

(* ------------------------------------------------------------------ *)

let callback_storm_program ~fillers ~iters =
  let open F.Ir in
  let filler i = fn (Printf.sprintf "filler_%04d" i) [ "x" ] (Binop (Add, Var "x", Int i)) in
  (* the callback target comes last, the worst case for a linear scan *)
  let fns =
    List.init fillers filler
    @ [
        fn "ocaml_id" [ "x" ] (Var "x");
        fn "main" [] (Repeat (Int iters, Extcall ("c_cb", [ Int 7 ])));
      ]
  in
  { fns; main = "main" }

let callback_storm () =
  let sizes = if smoke then [ 16; 64 ] else [ 16; 64; 256; 1024 ] in
  let iters = if smoke then 50 else 2_000 in
  header "callback storm: run_callback name lookup, per callback" "fillers";
  List.iter
    (fun fillers ->
      let compiled = F.Compile.compile (callback_storm_program ~fillers ~iters) in
      let ns =
        B.per_op_ns ~warmups ~runs ~iters (fun () ->
            expect_done 0
              (F.Machine.run ~cfuns:[ F.Programs.c_callback_impl ] F.Config.mc compiled))
      in
      row fillers ns)
    sizes

(* ------------------------------------------------------------------ *)

let backtrace_load () =
  let sizes = if smoke then [ 4; 8 ] else [ 16; 64; 256; 1024 ] in
  header "backtrace under load: DWARF unwind of one suspended request" "fibers";
  List.iter
    (fun n ->
      let compiled = F.Compile.compile (F.Programs.suspended_requests ~n) in
      let table = D.Table.build compiled in
      let per_bt = ref nan in
      let list_pending ctx _args =
        let m = ctx.F.Machine.machine in
        (* the machine is paused inside the C call: every continuation is
           parked, so snapshotting is a pure read we can time in place *)
        let median =
          (B.measure ~warmups ~runs (fun () ->
               D.Unwind.snapshot_continuations table m))
            .B.median_ns
        in
        per_bt := median /. float_of_int n;
        List.length (F.Machine.live_continuations m)
      in
      expect_done n
        (F.Machine.run ~cfuns:[ ("list_pending", list_pending) ] F.Config.mc compiled);
      row n !per_bt)
    sizes

let () =
  Printf.printf "fiber-machine hot-path microbench%s\n"
    (if smoke then " (smoke mode)" else "");
  deep_chain ();
  callback_storm ();
  backtrace_load ()
