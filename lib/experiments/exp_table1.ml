module F = Retrofit_fiber
module Micro = Retrofit_micro
module H = Retrofit_harness

type row = {
  bench : string;
  stock_instr : int;
  mc_instr : int;
  instr_pct : float;
  ocaml5_ns_per_op : float option;
}

let machine_instr cfg p =
  let compiled = F.Compile.compile p in
  match F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled with
  | F.Machine.Fatal msg, _ -> failwith ("Table 1 program failed: " ^ msg)
  | _, counters -> Retrofit_util.Counter.(value counters Instructions)

let row ?(time = None) bench p =
  let stock_instr = machine_instr F.Config.stock p in
  let mc_instr = machine_instr F.Config.mc p in
  {
    bench;
    stock_instr;
    mc_instr;
    instr_pct =
      Retrofit_util.Stats.percent_diff ~baseline:(float_of_int stock_instr)
        (float_of_int mc_instr);
    ocaml5_ns_per_op = time;
  }

let rows ?(quick = false) () =
  let iters = if quick then 10_000 else 100_000 in
  let wall_iters = if quick then 100_000 else 2_000_000 in
  let per_op f = Some (H.Bench.per_op_ns ~iters:wall_iters (fun () -> f wall_iters)) in
  [
    row ~time:(per_op Micro.Exn_bench.exnval_loop) "exnval" (F.Programs.exnval ~iters);
    row ~time:(per_op Micro.Exn_bench.exnraise_loop) "exnraise"
      (F.Programs.exnraise ~iters);
    row ~time:(per_op Micro.Extern.extcall_loop) "extcall" (F.Programs.extcall ~iters);
    row ~time:(per_op Micro.Extern.callback_loop) "callback"
      (F.Programs.callback ~iters);
    row "ack"
      (if quick then F.Programs.ack ~m:2 ~n:4 else F.Programs.ack ~m:2 ~n:8)
      ~time:
        (Some
           (H.Bench.median_ns (fun () -> Micro.Rec_bench.plain.Micro.Rec_bench.ack 3 6)));
    row "fib"
      (if quick then F.Programs.fib ~n:12 else F.Programs.fib ~n:20)
      ~time:
        (Some (H.Bench.median_ns (fun () -> Micro.Rec_bench.plain.Micro.Rec_bench.fib 25)));
    row "motzkin"
      (if quick then F.Programs.motzkin ~n:8 else F.Programs.motzkin ~n:11)
      ~time:
        (Some
           (H.Bench.median_ns (fun () ->
                Micro.Rec_bench.plain.Micro.Rec_bench.motzkin 14)));
    row "sudan"
      (F.Programs.sudan ~iters:50 ~n:1 ~x:3 ~y:200 ())
      ~time:
        (Some
           (H.Bench.median_ns (fun () ->
                Micro.Rec_bench.plain.Micro.Rec_bench.sudan 2 2 2)));
    row "tak"
      (if quick then F.Programs.tak ~x:12 ~y:8 ~z:4 else F.Programs.tak ~x:14 ~y:10 ~z:6)
      ~time:
        (Some
           (H.Bench.median_ns (fun () ->
                Micro.Rec_bench.plain.Micro.Rec_bench.tak 18 12 6)));
  ]

let report ?quick () =
  let rows = rows ?quick () in
  let table =
    Retrofit_util.Table.render
      ~align:[ Retrofit_util.Table.Left; Right; Right; Right; Right ]
      ~header:[ "bench"; "stock instr"; "mc instr"; "Instr %"; "OCaml5 run (ns)" ]
      (List.map
         (fun r ->
           [
             r.bench;
             string_of_int r.stock_instr;
             string_of_int r.mc_instr;
             Printf.sprintf "%+.1f" r.instr_pct;
             (match r.ocaml5_ns_per_op with
             | Some ns -> Printf.sprintf "%.1f" ns
             | None -> "-");
           ])
         rows)
  in
  "Table 1: micro benchmarks without effects\n\
   (Instr: fiber-machine instruction counts, MC vs stock; paper: exn rows +0.0,\n\
   extcall +10, callback +72, recursives +14..+24.  Time column: absolute\n\
   OCaml 5 measurements of the same benchmark, for context.)\n\n" ^ table
