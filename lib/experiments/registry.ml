type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : ?quick:bool -> unit -> string;
}

let all =
  [
    {
      id = "table1";
      title = "micro benchmarks without effects";
      paper_ref = "Table 1";
      run = Exp_table1.report;
    };
    {
      id = "fig4";
      title = "macro benchmark normalized time";
      paper_ref = "Figure 4";
      run = Exp_fig4.report;
    };
    {
      id = "fig5";
      title = "normalized OCaml text-section size";
      paper_ref = "Figure 5";
      run = Exp_fig5.report;
    };
    {
      id = "table2";
      title = "handlers but no perform";
      paper_ref = "Table 2";
      run = Exp_table2.report;
    };
    {
      id = "opcost";
      title = "effect operation costs";
      paper_ref = "Section 6.3";
      run = Exp_opcost.report;
    };
    {
      id = "generators";
      title = "generators from iterators";
      paper_ref = "Section 6.3.1";
      run = Exp_concurrent.report_generators;
    };
    {
      id = "chameneos";
      title = "chameneos concurrency game";
      paper_ref = "Section 6.3.2";
      run = Exp_concurrent.report_chameneos;
    };
    {
      id = "finalisers";
      title = "finalised continuations";
      paper_ref = "Section 6.3.3";
      run = Exp_concurrent.report_finalisers;
    };
    {
      id = "fig6";
      title = "web server throughput and latency";
      paper_ref = "Figure 6";
      run = Exp_fig6.report;
    };
    {
      id = "degradation";
      title = "web server goodput under fault injection";
      paper_ref = "Section 6.4 (extension)";
      run = Exp_degradation.report;
    };
    {
      id = "chaos";
      title = "supervision trees and chaos scheduling";
      paper_ref = "Section 6.3.4 (robustness extension)";
      run = Exp_chaos.report;
    };
    {
      id = "backtrace";
      title = "meander backtrace and DWARF validation";
      paper_ref = "Figure 1d / Section 5.5";
      run = Exp_backtrace.report;
    };
    {
      id = "observe";
      title = "eventlog, metrics and sampling profiler";
      paper_ref = "Section 5.4 (observability extension)";
      run = Exp_observe.report;
    };
    {
      id = "causal";
      title = "span graphs and per-request latency attribution";
      paper_ref = "Section 5.4 (causal-tracing extension)";
      run = Exp_causal.report;
    };
    {
      id = "ablation";
      title = "design-choice ablations";
      paper_ref = "Sections 5.1, 5.2, 5.5";
      run = Exp_ablation.report;
    };
    {
      id = "stacklab";
      title = "stack-management strategy lab";
      paper_ref = "Sections 2.1, 5.2 (policy alternatives)";
      run = Exp_stacklab.report;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all
