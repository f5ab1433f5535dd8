(* The retrofit command-line tool.

   retrofit interp -e "match perform E 0 with v -> v | effect (E x) k ->
     continue k 42 end"        evaluate a program in the formal semantics
   retrofit interp --example meander --trace
   retrofit examples           list the built-in semantics examples
   retrofit bench table1       regenerate one of the paper's tables/figures
   retrofit bench --all --quick
   retrofit bench backtrace    the Fig 1d meander backtrace
   retrofit lint               static effect-safety lints over the built-ins
   retrofit websim --rate 20000
   retrofit websim --trace out.json --metrics out.prom --profile out.folded
   retrofit causal --rate 5000 --faults 0.5 --trace flows.json
   retrofit validate-trace out.json
*)

module S = Retrofit_semantics
module E = Retrofit_experiments
module Trace = Retrofit_trace.Trace
module Export = Retrofit_trace.Export
module Metrics = Retrofit_metrics.Metrics

open Cmdliner

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* interp *)

let run_interp source example trace fuel =
  let source =
    match (source, example) with
    | Some s, None -> Ok s
    | None, Some name -> (
        match S.Examples.find name with
        | Some ex -> Ok ex.S.Examples.source
        | None ->
            Error
              (Printf.sprintf "unknown example %S; try `retrofit examples`" name))
    | None, None -> Error "provide a program with -e or --example"
    | Some _, Some _ -> Error "-e and --example are mutually exclusive"
  in
  match source with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok source -> (
      match S.Parser.parse source with
      | Error msg ->
          Printf.eprintf "syntax error: %s\n" msg;
          1
      | Ok ast ->
          let tracer =
            if trace then
              Some (fun cfg -> Format.printf "%a@." S.Syntax.pp_config cfg)
            else None
          in
          let result = S.Machine.run ~fuel ?trace:tracer ast in
          print_endline (S.Machine.result_to_string result);
          (match result with S.Machine.Value _ -> 0 | _ -> 1))

let interp_cmd =
  let source =
    Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~doc:"Program text.")
  in
  let example =
    Arg.(
      value
      & opt (some string) None
      & info [ "example" ] ~doc:"Run a named built-in example.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print every machine configuration.")
  in
  let fuel =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc:"Maximum reduction steps.")
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Evaluate a program in the executable semantics of §4")
    Term.(const run_interp $ source $ example $ trace $ fuel)

let examples_cmd =
  let run () =
    List.iter
      (fun (ex : S.Examples.t) ->
        Printf.printf "%-24s %s\n" ex.name ex.description)
      S.Examples.all;
    0
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"List the built-in semantics examples")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* bench *)

let run_bench ids all quick =
  let targets =
    if all then List.map (fun (e : E.Registry.t) -> e.id) E.Registry.all else ids
  in
  if targets = [] then begin
    List.iter
      (fun (e : E.Registry.t) ->
        Printf.printf "%-11s %s (%s)\n" e.id e.title e.paper_ref)
      E.Registry.all;
    0
  end
  else begin
    let missing =
      List.filter (fun id -> E.Registry.find id = None) targets
    in
    match missing with
    | _ :: _ ->
        Printf.eprintf "unknown experiments: %s\n" (String.concat ", " missing);
        1
    | [] ->
        List.iter
          (fun id ->
            let e = Option.get (E.Registry.find id) in
            Printf.printf "=== %s: %s (%s) ===\n\n%s\n" e.id e.title e.paper_ref
              (e.run ~quick ()))
          targets;
        0
  end

let bench_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes (for smoke runs).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Regenerate the paper's tables and figures (no arguments: list them)")
    Term.(const run_bench $ ids $ all $ quick)

(* ------------------------------------------------------------------ *)
(* websim *)

let websim_cmd =
  let module HS = Retrofit_httpsim in
  let run rate duration seed faults chaos drain trace_out metrics_out
      profile_out =
    let workload () =
      match chaos with
      | Some cseed ->
          (* Supervised trio under the seeded chaos scheduler: accept
             loops in a supervision tree, per-connection nurseries, a
             watchdog, and optionally a graceful drain.  Deterministic
             in the seed — see DESIGN.md §12. *)
          let chaotic =
            HS.Supervised.with_chaos (HS.Supervised.default_config ~seed:cseed)
          in
          let cfg = { chaotic with drain_after_ns = drain } in
          List.iter
            (fun s -> print_endline (HS.Supervised.summary_to_string s))
            (HS.Supervised.run_servers cfg)
      | None ->
      if faults <= 0.0 then begin
      let outcomes = HS.Experiment.fig6b ~rate_rps:rate ~duration_ms:duration () in
      List.iter
        (fun (o : HS.Loadgen.outcome) ->
          Printf.printf
            "%-4s offered=%d achieved=%.0f p50=%.2fms p99=%.2fms p99.9=%.2fms \
             gc=%d errors=%d\n"
            o.model_name o.offered_rps o.achieved_rps
            (float_of_int o.p50_ns /. 1e6)
            (float_of_int o.p99_ns /. 1e6)
            (float_of_int o.p999_ns /. 1e6)
            o.gc_pauses o.errors)
        outcomes
    end
    else begin
      let fault_rates = HS.Faults.scale faults HS.Faults.default in
      List.iter
        (fun (model, process) ->
          let o =
            HS.Loadgen.run ~seed ~faults:fault_rates ~model ~process ~rate_rps:rate
              ~duration_ms:duration ()
          in
          Printf.printf
            "%-4s offered=%d goodput=%.0f p99=%.2fms total=%d ok=%d timeout=%d \
             malformed=%d shed=%d 500s=%d retries=%d faults=%d/%d/%d/%d/%d/%d\n"
            o.HS.Loadgen.model_name o.HS.Loadgen.offered_rps o.HS.Loadgen.achieved_rps
            (float_of_int o.HS.Loadgen.p99_ns /. 1e6)
            o.HS.Loadgen.total_requests o.HS.Loadgen.completed o.HS.Loadgen.timeouts
            o.HS.Loadgen.malformed o.HS.Loadgen.shed o.HS.Loadgen.server_errors
            o.HS.Loadgen.retries o.HS.Loadgen.faults.HS.Loadgen.injected
            o.HS.Loadgen.faults.HS.Loadgen.to_malformed
            o.HS.Loadgen.faults.HS.Loadgen.to_retried
            o.HS.Loadgen.faults.HS.Loadgen.to_timeout
            o.HS.Loadgen.faults.HS.Loadgen.to_server_error
            o.HS.Loadgen.faults.HS.Loadgen.to_absorbed)
        HS.Experiment.servers
    end
    in
    match (trace_out, metrics_out, profile_out) with
    | None, None, None ->
        workload ();
        0
    | _ ->
        (* Observability run: the same seeded workload inside a trace +
           metrics session, plus the profiled fiber-machine and
           scheduler workloads so the snapshot covers every subsystem.
           Everything is keyed on the seed — two runs with the same
           arguments produce byte-identical artifacts. *)
        let prof, ring =
          Trace.scoped (fun () ->
              Metrics.scoped (fun _ ->
                  workload ();
                  ignore (E.Exp_observe.sched_workload ());
                  let prof = E.Exp_observe.profiled_run () in
                  (* blocked-time leaf frames (<wait:io> / <wait:runq>)
                     derived from the eventlog captured above; published
                     as a delta because profiled_run already pushed its
                     totals *)
                  ignore (E.Exp_observe.fold_waits prof (Trace.events ()));
                  if Metrics.on () then
                    Metrics.inc
                      ~by:(Retrofit_dwarf.Profile.wait_samples prof)
                      "profile_wait_samples_total";
                  prof))
        in
        (match trace_out with
        | Some path -> write_file path (Export.of_trace_chrome ring)
        | None -> ());
        (match metrics_out with
        | Some path -> write_file path (Metrics.to_prometheus ())
        | None -> ());
        (match profile_out with
        | Some path -> write_file path (Retrofit_dwarf.Profile.folded prof)
        | None -> ());
        0
  in
  let rate =
    Arg.(value & opt int 20_000 & info [ "rate" ] ~doc:"Offered load (req/s).")
  in
  let duration =
    Arg.(value & opt int 2_000 & info [ "duration" ] ~doc:"Duration (ms).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Trace/fault seed.") in
  let faults =
    Arg.(
      value & opt float 0.0
      & info [ "faults" ]
          ~doc:
            "Fault intensity (multiplier over the default fault plan); 0 \
             disables injection and prints the Fig 6b latency report.")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Run the supervised simulation under the seeded chaos scheduler \
             (fiber kills, delayed resumes, spurious wakeups) instead of the \
             load generator.  Deterministic: the same seed reproduces the \
             run byte-for-byte.")
  in
  let drain =
    Arg.(
      value
      & opt (some int) None
      & info [ "drain" ] ~docv:"NS"
          ~doc:
            "With --chaos: begin a graceful drain at this virtual time (ns).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:"Write a Chrome trace_event eventlog of the run.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"OUT.prom"
          ~doc:"Write a Prometheus text-format metrics snapshot.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"OUT.folded"
          ~doc:
            "Write folded flamegraph stacks from the DWARF sampling profiler \
             (run on the seeded fiber-machine workload).")
  in
  Cmd.v
    (Cmd.info "websim" ~doc:"Run the web-server simulation at one load point")
    Term.(
      const run $ rate $ duration $ seed $ faults $ chaos $ drain $ trace_out
      $ metrics_out $ profile_out)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd =
  let module F = Retrofit_fiber in
  let module A = Retrofit_analysis in
  (* The built-ins' C stubs, modelled precisely: the identity and the
     pending-list snapshot never re-enter OCaml; the two callback stubs
     re-enter through exactly one known function. *)
  let cfun_model = function
    | "c_id" | "list_pending" -> A.Cfg.Pure
    | "c_cb" -> A.Cfg.Calls_back "ocaml_id"
    | "ocaml_to_c" -> A.Cfg.Calls_back "c_to_ocaml"
    | _ -> A.Cfg.Opaque
  in
  (* Small fixed sizes: the lints are size-independent, and the golden
     file must be stable. *)
  let targets =
    [
      ("fib", F.Programs.fib ~n:5);
      ("exnraise", F.Programs.exnraise ~iters:3);
      ("extcall", F.Programs.extcall ~iters:3);
      ("callback", F.Programs.callback ~iters:3);
      ("meander", F.Programs.meander);
      ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:3);
      ("effect_depth", F.Programs.effect_depth ~depth:3 ~iters:2);
      ("counter_effect", F.Programs.counter_effect ~upto:4);
      ("one_shot_violation", F.Programs.one_shot_violation);
      ("unhandled_effect", F.Programs.unhandled_effect);
      ("discontinue_cleanup", F.Programs.discontinue_cleanup);
      ("effect_in_callback", F.Programs.effect_in_callback);
      ("cross_resume", F.Programs.cross_resume);
      ("multishot_choice", F.Programs.multishot_choice);
      ("suspended_requests", F.Programs.suspended_requests ~n:3);
    ]
  in
  let run red_zone multishot handlers cost_bounds quiet name =
    let targets =
      match name with
      | None -> targets
      | Some n -> List.filter (fun (tn, _) -> tn = n) targets
    in
    if targets = [] then begin
      prerr_endline "unknown program; omit the argument to list all";
      1
    end
    else begin
      let findings = ref 0 and musts = ref 0 in
      List.iter
        (fun (name, p) ->
          let r = A.Analyze.analyze ~cfun_model ~multishot p in
          let rz = A.Redzone.audit ~red_zone r.A.Analyze.compiled in
          let extra =
            (if handlers then A.Resolve.diagnostics r.A.Analyze.resolve else [])
            @
            if cost_bounds then A.Costbound.diagnostics r.A.Analyze.cost else []
          in
          let report =
            {
              r.A.Analyze.report with
              A.Diag.diags =
                A.Diag.dedup (rz @ extra @ r.A.Analyze.report.A.Diag.diags);
            }
          in
          let is_must v = v = A.Diag.Must in
          musts :=
            !musts
            + List.length
                (List.filter (fun d -> is_must d.A.Diag.verdict) report.A.Diag.diags)
            + (if is_must report.A.Diag.unhandled then 1 else 0)
            + if is_must report.A.Diag.one_shot then 1 else 0;
          findings := !findings + List.length report.A.Diag.diags;
          if not quiet then begin
            let loc = A.Diag.locator ~file:name p in
            Printf.printf "== %s ==\n%s" name (A.Diag.report_to_string ~loc report);
            if handlers then
              Printf.printf "%s" (A.Resolve.report r.A.Analyze.resolve);
            if cost_bounds then
              Printf.printf "%s"
                (A.Costbound.report ~multishot ~red_zone r.A.Analyze.cost);
            print_newline ()
          end)
        targets;
      Printf.printf "%d findings (%d must) across %d programs\n" !findings
        !musts (List.length targets);
      if !musts > 0 then 1 else 0
    end
  in
  let red_zone =
    Arg.(
      value & opt int 16
      & info [ "red-zone" ]
          ~doc:"Red-zone size (words) for the frame-usage audit (§5.2).")
  in
  let multishot =
    Arg.(
      value & flag
      & info [ "multishot" ]
          ~doc:
            "Lint for a multishot runtime: continuation cloning makes a \
             second resume legal, so may-resume-twice findings are \
             verified-safe and resume sites stop counting as one-shot \
             violation sources.")
  in
  let handlers =
    Arg.(
      value & flag
      & info [ "handlers" ]
          ~doc:
            "Print the interprocedural handler-resolution table: per perform \
             site, the candidate handler clauses, the \
             monomorphic/polymorphic/megamorphic classification, and the \
             inline-cache candidate census.")
  in
  let cost_bounds =
    Arg.(
      value & flag
      & info [ "cost-bounds" ]
          ~doc:
            "Print the static cost-bound table: whole-program and \
             per-function bounds on performs, handler installations, resumes \
             and calls, plus per-stack-policy bounds on the machine's cost \
             counters (switches, grows, checks, probes, captures).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:"Print only the one-line findings summary.")
  in
  let prog =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"Lint a single built-in program.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static effect-safety lints: handled-effect dataflow, continuation \
          linearity, C-frame barriers, handler resolution, cost bounds and \
          the red-zone audit over the built-in fiber programs.  Exits \
          nonzero when any finding or program verdict is must."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when no diagnostic carries a must verdict; 1 when at least \
              one finding or program-level verdict is must (a defect the \
              analyzer proved, not merely failed to rule out).";
         ])
    Term.(
      const run $ red_zone $ multishot $ handlers $ cost_bounds $ quiet $ prog)

(* ------------------------------------------------------------------ *)
(* causal *)

let causal_cmd =
  let module HS = Retrofit_httpsim in
  let module Causal = Retrofit_causal in
  let run rate duration seed faults queue_cap top model capacity trace_out =
    match
      List.find_opt
        (fun ((m : Retrofit_httpsim.Server.model), _) -> m.HS.Server.name = model)
        HS.Experiment.servers
    with
    | None ->
        Printf.eprintf "unknown model %S; one of: %s\n" model
          (String.concat ", "
             (List.map
                (fun ((m : HS.Server.model), _) -> m.HS.Server.name)
                HS.Experiment.servers));
        1
    | Some (m, process) ->
        let fault_rates = HS.Faults.scale faults HS.Faults.default in
        let _outcome, ring =
          Trace.scoped ~capacity (fun () ->
              HS.Loadgen.run ~seed ~faults:fault_rates ~queue_cap ~model:m
                ~process ~rate_rps:rate ~duration_ms:duration ())
        in
        let g = Causal.Reconstruct.of_trace ring in
        print_string (Causal.Report.render ~top g);
        (match trace_out with
        | Some path ->
            let events = Causal.Reconstruct.with_flows (Trace.to_list ring) g in
            write_file path
              (Export.to_chrome ~dropped:(Trace.dropped ring) events)
        | None -> ());
        0
  in
  let rate =
    Arg.(value & opt int 20_000 & info [ "rate" ] ~doc:"Offered load (req/s).")
  in
  let duration =
    Arg.(value & opt int 300 & info [ "duration" ] ~doc:"Duration (ms).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let faults =
    Arg.(
      value & opt float 0.5
      & info [ "faults" ]
          ~doc:"Fault intensity (multiplier over the default fault plan).")
  in
  let queue_cap =
    Arg.(
      value & opt int 512
      & info [ "queue-cap" ] ~doc:"Admission-control queue cap.")
  in
  let top =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~doc:"Rows in the critical-path edge table.")
  in
  let model =
    Arg.(
      value & opt string "mc"
      & info [ "model" ] ~doc:"Server model (mc, lwt, go).")
  in
  let capacity =
    Arg.(
      value
      & opt int (1 lsl 18)
      & info [ "ring-capacity" ]
          ~doc:
            "Eventlog ring capacity; undersize it to watch wraparound turn \
             requests into incomplete_spans instead of mis-attributions.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:
            "Write the eventlog as a Chrome trace with per-request flow \
             events (s/t/f) — Perfetto draws the causal arrows.")
  in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Reconstruct the span graph of a seeded websim run: per-request \
          latency attribution, critical-path edges, p99 tail exemplars")
    Term.(
      const run $ rate $ duration $ seed $ faults $ queue_cap $ top $ model
      $ capacity $ trace_out)

let validate_trace_cmd =
  let run file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Export.validate_chrome s with
    | Ok n ->
        Printf.printf "ok: %d events\n" n;
        0
    | Error e ->
        Printf.eprintf "invalid trace: %s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json") in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Check a Chrome trace_event JSON file against the eventlog schema")
    Term.(const run $ file)

let main_cmd =
  Cmd.group
    (Cmd.info "retrofit" ~version:"1.0"
       ~doc:
         "Reproduction of 'Retrofitting Effect Handlers onto OCaml' (PLDI 2021)")
    [
      interp_cmd; examples_cmd; bench_cmd; lint_cmd; websim_cmd;
      causal_cmd; validate_trace_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
