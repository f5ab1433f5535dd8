module F = Retrofit_fiber
module A = Retrofit_analysis

type failure = {
  index : int;
  prog_seed : int;
  report : Oracle.report;
  analysis : string option;
  policy : string option;
  policy_outcome : Outcome.t option;
  shrunk : Ir.program option;
  shrunk_report : Oracle.report option;
}

type stats = {
  programs : int;
  agreements : (string * int) list;
  skips : (string * int) list;
  policy_agreements : (string * int) list;
  policy_skips : (string * int) list;
  audit_checks : int;
  audit_visits : int;
  dwarf_probes : int;
  analyzed : int;
  dispatch_checks : int;
  bound_checks : int;
  failures : failure list;
}

(* Knuth multiplicative mixing keeps per-program seeds decorrelated
   even for consecutive campaign seeds; masking keeps them positive. *)
let prog_seed ~seed i = (seed lxor ((i + 1) * 0x9E3779B1)) land max_int

let pair_names = [ "semantics<->fiber"; "fiber<->native"; "semantics<->native" ]

let default_policies = F.Stack_policy.[ segmented; segmented_cow; large_reserve ]

let campaign ?cfg ?(fiber_config = F.Config.mc) ?fib_fuel ?sem_one_shot
    ?(audit = true) ?(dwarf = true) ?(analyze = false) ?(max_failures = 5)
    ?(shrink = true) ?(policies = []) ?(multishot = false) ~seed ~count () :
    stats =
  if multishot && not fiber_config.F.Config.multishot then
    invalid_arg
      "Fuzz.campaign: a multishot campaign needs a fiber configuration with \
       multishot continuation cloning enabled (Config.with_multishot true); \
       the default one-shot runtime cannot execute programs that resume a \
       continuation twice";
  let sem_one_shot = if multishot then Some false else sem_one_shot in
  let with_native = not multishot in
  let agree = Hashtbl.create 4 and skip = Hashtbl.create 4 in
  List.iter
    (fun p ->
      Hashtbl.replace agree p 0;
      Hashtbl.replace skip p 0)
    pair_names;
  let policy_cfgs =
    List.map
      (fun p -> (F.Stack_policy.name p, F.Config.with_policy p fiber_config))
      policies
  in
  let pagree = Hashtbl.create 4 and pskip = Hashtbl.create 4 in
  List.iter
    (fun (n, _) ->
      Hashtbl.replace pagree n 0;
      Hashtbl.replace pskip n 0)
    policy_cfgs;
  let bump tbl p = Hashtbl.replace tbl p (Hashtbl.find tbl p + 1) in
  let audit_checks = ref 0 and audit_visits = ref 0 and dwarf_probes = ref 0 in
  let failures = ref [] in
  let analyzed = ref 0 in
  let run_oracle p s =
    Oracle.run ~fiber_config ?fib_fuel ?sem_one_shot ~audit ~with_native
      ?dwarf_seed:(if dwarf then Some s else None)
      p
  in
  let run_policies p s =
    List.map
      (fun (name, cfgp) ->
        ( name,
          Fiber_backend.run ~config:cfgp ?fuel:fib_fuel ~audit
            ?dwarf_seed:(if dwarf then Some s else None)
            p ))
      policy_cfgs
  in
  (* A policy run disagrees when its outcome differs from the default
     policy's, or its auditor/unwinder tripped.  Running out of the
     (finite) reservation is a resource limit of the policy, not a
     semantic disagreement, so a policy-side Stack_overflow the default
     policy did not produce is inconclusive. *)
  let policy_verdict base (fr : Fiber_backend.result) =
    if fr.Fiber_backend.audit_violations <> [] || fr.Fiber_backend.dwarf_failures <> []
    then Oracle.Diff
    else
      match fr.Fiber_backend.outcome with
      | Outcome.Exn ("Stack_overflow", _) as o when not (Outcome.equal base o) ->
          Oracle.Skip
      | o -> Oracle.compare_pair base o
  in
  let policy_diffs base runs =
    List.filter_map
      (fun (name, fr) ->
        match policy_verdict base fr with
        | Oracle.Diff -> Some (name, fr.Fiber_backend.outcome)
        | Oracle.Agree | Oracle.Skip -> None)
      runs
  in
  (* Handler-resolution and cost-bound soundness: re-run the fiber
     backend instrumented (default config plus every campaign policy),
     recording the actual handler identity at each dynamic perform and
     the final counter table, and hold both against the static claims.
     A mono-resolved site dispatching elsewhere, an Unhandled at a site
     not flagged +toplevel/+via-c, or a measured counter above its
     finite bound is a campaign failure like any other — shrinking sees
     it through the same predicate. *)
  let probe_cfgs = ("default", fiber_config) :: policy_cfgs in
  let dispatch_checks = ref 0 and bound_checks = ref 0 in
  let soundness_probe (c : Static.claims) p =
    let rt = Static.runtime_map c in
    List.find_map
      (fun (name, cfgp) ->
        let obs = ref [] in
        let on_perform ~site ~eff:_ ~handler = obs := (site, handler) :: !obs in
        let fr =
          Fiber_backend.run ~config:cfgp ?fuel:fib_fuel ~audit:false ~on_perform
            p
        in
        match fr.Fiber_backend.outcome with
        | Outcome.Model_error _ -> None
        | _ -> (
            let observed = List.rev !obs in
            dispatch_checks := !dispatch_checks + List.length observed;
            match Static.dispatch_contradiction c rt observed with
            | Some msg -> Some (Printf.sprintf "[%s] %s" name msg)
            | None -> (
                incr bound_checks;
                match
                  Static.bound_contradiction c ~policy:cfgp.F.Config.policy
                    ~multishot:cfgp.F.Config.multishot fr.Fiber_backend.counters
                with
                | Some msg -> Some (Printf.sprintf "[%s] %s" name msg)
                | None -> None)))
      probe_cfgs
  in
  (* The per-site resolution census feeds the metrics registry (when
     enabled); recorded once per campaign program, not per shrink
     step. *)
  let record_resolution (c : Static.claims) =
    if Retrofit_metrics.Metrics.on () then
      List.iter
        (fun (s : A.Resolve.site) ->
          Retrofit_metrics.Metrics.inc
            ~labels:[ ("class", A.Resolve.klass_to_string s.A.Resolve.r_class) ]
            "perform_site_resolution_total")
        (A.Resolve.all_sites c.Static.result.A.Analyze.resolve)
  in
  (* The analyzer-vs-oracle soundness check: a crash in the analyzer is
     as much a campaign failure as an unsound claim. *)
  let static_check ?(record = false) p r =
    if not analyze then None
    else begin
      incr analyzed;
      match Static.analyze p with
      | c -> (
          if record then record_resolution c;
          match Static.check ~fiber_config ?sem_one_shot c r with
          | Some _ as s -> s
          | None -> soundness_probe c p)
      | exception e ->
          Some (Printf.sprintf "analyzer raised %s" (Printexc.to_string e))
    end
  in
  let i = ref 0 in
  while !i < count && List.length !failures < max_failures do
    let s = prog_seed ~seed !i in
    let p = Gen.program_of_seed ?cfg s in
    let r = run_oracle p s in
    audit_checks := !audit_checks + r.Oracle.audit_checks;
    audit_visits := !audit_visits + r.Oracle.audit_visits;
    dwarf_probes := !dwarf_probes + r.Oracle.dwarf_probes;
    List.iter
      (fun (name, v) ->
        match v with
        | Oracle.Agree -> bump agree name
        | Oracle.Skip -> bump skip name
        | Oracle.Diff -> ())
      r.Oracle.pairs;
    let pol_runs = run_policies p s in
    List.iter
      (fun (name, fr) ->
        audit_checks := !audit_checks + fr.Fiber_backend.audit_checks;
        audit_visits := !audit_visits + fr.Fiber_backend.audit_visits;
        dwarf_probes := !dwarf_probes + fr.Fiber_backend.dwarf_probes;
        match policy_verdict r.Oracle.fib fr with
        | Oracle.Agree -> bump pagree name
        | Oracle.Skip -> bump pskip name
        | Oracle.Diff -> ())
      pol_runs;
    let offending = policy_diffs r.Oracle.fib pol_runs in
    let analysis = static_check ~record:true p r in
    if (not (Oracle.ok r)) || analysis <> None || offending <> [] then begin
      let failing q rq =
        (not (Oracle.ok rq))
        || static_check q rq <> None
        || policy_diffs rq.Oracle.fib (run_policies q s) <> []
      in
      let shrunk, shrunk_report =
        if shrink then begin
          let interesting q = failing q (run_oracle q s) in
          let q = Shrink.minimize ~interesting p in
          (Some q, Some (run_oracle q s))
        end
        else (None, None)
      in
      let analysis =
        match (analysis, shrunk, shrunk_report) with
        | None, _, _ | _, None, _ | _, _, None -> analysis
        | Some _, Some q, Some rq -> (
            (* re-derive the message for the minimized program, keeping
               the original if shrinking converged on an oracle diff *)
            match static_check q rq with None -> analysis | some -> some)
      in
      let policy, policy_outcome =
        (* name the policy the shrunk program still disagrees on when
           there is one, else the original offender *)
        let shrunk_offender =
          match (shrunk, shrunk_report) with
          | Some q, Some rq -> policy_diffs rq.Oracle.fib (run_policies q s)
          | _ -> []
        in
        match (shrunk_offender, offending) with
        | (n, o) :: _, _ | [], (n, o) :: _ -> (Some n, Some o)
        | [], [] -> (None, None)
      in
      failures :=
        {
          index = !i;
          prog_seed = s;
          report = r;
          analysis;
          policy;
          policy_outcome;
          shrunk;
          shrunk_report;
        }
        :: !failures
    end;
    incr i
  done;
  {
    programs = !i;
    agreements = List.map (fun p -> (p, Hashtbl.find agree p)) pair_names;
    skips = List.map (fun p -> (p, Hashtbl.find skip p)) pair_names;
    policy_agreements =
      List.map (fun (n, _) -> (n, Hashtbl.find pagree n)) policy_cfgs;
    policy_skips = List.map (fun (n, _) -> (n, Hashtbl.find pskip n)) policy_cfgs;
    audit_checks = !audit_checks;
    audit_visits = !audit_visits;
    dwarf_probes = !dwarf_probes;
    analyzed = !analyzed;
    dispatch_checks = !dispatch_checks;
    bound_checks = !bound_checks;
    failures = List.rev !failures;
  }

let replay_corpus () =
  List.filter_map
    (fun (e : Corpus.entry) ->
      let r = Oracle.run ~audit:true ~dwarf_seed:1 e.program in
      if not (Oracle.ok r) then
        Some (e.name, "oracle disagreement:\n" ^ Oracle.to_string r)
      else if not (Outcome.equal r.Oracle.nat e.expect) then
        Some
          ( e.name,
            Printf.sprintf "expected %s, native produced %s"
              (Outcome.to_string e.expect)
              (Outcome.to_string r.Oracle.nat) )
      else None)
    Corpus.entries

let failure_to_string f =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "--- failure at program %d (seed %d) ---\n" f.index f.prog_seed);
  Buffer.add_string b (Ir.program_to_string f.report.Oracle.program);
  Buffer.add_char b '\n';
  Buffer.add_string b (Oracle.to_string f.report);
  (match f.analysis with
  | Some msg -> Buffer.add_string b (Printf.sprintf "static soundness: %s\n" msg)
  | None -> ());
  (match (f.policy, f.policy_outcome) with
  | Some name, Some o ->
      Buffer.add_string b
        (Printf.sprintf "offending stack policy %s: %s (default policy: %s)\n"
           name (Outcome.to_string o)
           (Outcome.to_string f.report.Oracle.fib))
  | _ -> ());
  (match (f.shrunk, f.shrunk_report) with
  | Some q, Some r ->
      Buffer.add_string b
        (Printf.sprintf "shrunk to %d nodes:\n" (Ir.program_nodes q));
      Buffer.add_string b (Ir.program_to_string q);
      Buffer.add_char b '\n';
      Buffer.add_string b (Oracle.to_string r)
  | _ -> ());
  Buffer.add_string b
    (Printf.sprintf "replay: Gen.program_of_seed %d  (campaign program %d)\n"
       f.prog_seed f.index);
  Buffer.contents b

let stats_to_string s =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "programs: %d\n" s.programs);
  List.iter
    (fun (p, n) ->
      Buffer.add_string b
        (Printf.sprintf "  %-20s agree %d, skip %d\n" p n (List.assoc p s.skips)))
    s.agreements;
  List.iter
    (fun (p, n) ->
      Buffer.add_string b
        (Printf.sprintf "  policy %-13s agree %d, skip %d\n" p n
           (List.assoc p s.policy_skips)))
    s.policy_agreements;
  Buffer.add_string b
    (Printf.sprintf
       "audit checks: %d, audit visits: %d, dwarf probes: %d, analyzed: %d, failures: %d\n"
       s.audit_checks s.audit_visits s.dwarf_probes s.analyzed (List.length s.failures));
  if s.dispatch_checks > 0 || s.bound_checks > 0 then
    Buffer.add_string b
      (Printf.sprintf "dispatches checked: %d, counter-bound tables checked: %d\n"
         s.dispatch_checks s.bound_checks);
  List.iter (fun f -> Buffer.add_string b (failure_to_string f)) s.failures;
  Buffer.contents b
