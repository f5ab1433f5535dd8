module F = Retrofit_fiber
module A = Retrofit_analysis

type failure = {
  index : int;
  prog_seed : int;
  report : Oracle.report;
  analysis : string option;
  policy : string option;
  policy_outcome : Outcome.t option;
  shrunk : F.Ir.program option;
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

(* One fiber leg of a program: its run under one configuration and,
   when the program was analyzed, what holding the run against the
   claims found as it ended: how many perform dispatches it made, the
   first that contradicts the handler resolution, and the first counter
   above its static bound.  The dispatches themselves are dropped. *)
type leg = {
  name : string;
  run : Fiber_backend.result;
  dispatches : int;
  misdispatch : string option;
  overbound : string option;
}

(* One evaluation of a program: the analyzer's claims (when analyzing),
   the oracle report and every fiber leg, each run once: the oracle's
   leg under the campaign's configuration, then one per policy. *)
type eval = {
  claims : (Static.claims, exn) result option;
  report : Oracle.report;
  legs : leg list;
}

let campaign ?(fiber_config = F.Config.mc) ?(sem_one_shot = true)
    ?(audit = true) ?(dwarf = true) ?(analyze = false) ?(max_failures = 5)
    ?(shrink = true) ?(policies = []) ?(multishot = false) ~seed ~count () :
    stats =
  if multishot && not fiber_config.F.Config.multishot then
    invalid_arg
      "Fuzz.campaign: a multishot campaign needs a fiber configuration with \
       multishot continuation cloning enabled (Config.with_multishot true); \
       the default one-shot runtime cannot execute programs that resume a \
       continuation twice";
  let sem_one_shot = sem_one_shot && not multishot in
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
  let tally agree skip name = function
    | Oracle.Agree -> Hashtbl.replace agree name (Hashtbl.find agree name + 1)
    | Oracle.Skip -> Hashtbl.replace skip name (Hashtbl.find skip name + 1)
    | Oracle.Diff -> ()
  in
  let audit_checks = ref 0 and audit_visits = ref 0 and dwarf_probes = ref 0 in
  let failures = ref [] in
  let analyzed = ref 0 and dispatch_checks = ref 0 and bound_checks = ref 0 in
  (* The program is compiled once and analyzed before its legs run, so
     a leg records its dispatches as it runs and they are checked as it
     ends.  Host effects are one-shot, so a multishot campaign reports
     its native leg as inconclusive, which every pair skips. *)
  let evaluate p s =
    let c = Fiber_backend.compile p in
    let claims =
      if not analyze then None
      else
        Some
          (try Ok (Static.analyze ?compiled:(Fiber_backend.program c) p)
           with e -> Error e)
    in
    let resolution =
      match claims with
      | Some (Ok cl) -> Some (cl, Static.runtime_map cl)
      | None | Some (Error _) -> None
    in
    let leg (name, config) =
      let obs = ref [] in
      let record ~site ~eff:_ ~handler = obs := (site, handler) :: !obs in
      let run =
        Fiber_backend.exec ~config ~audit
          ?dwarf_seed:(if dwarf then Some s else None)
          ?on_perform:(Option.map (fun _ -> record) resolution) c
      in
      let observed = List.rev !obs in
      let check f = Option.bind resolution f in
      {
        name;
        run;
        dispatches = List.length observed;
        misdispatch =
          check (fun (cl, rt) -> Static.dispatch_contradiction cl rt observed);
        overbound =
          check (fun (cl, _) ->
              Static.bound_contradiction cl ~config run.Fiber_backend.counters);
      }
    in
    let sem = Sem_backend.run ~one_shot:sem_one_shot p in
    let fib = leg ("default", fiber_config) in
    let nat = if multishot then Outcome.Fuel_out else Native_backend.run p in
    let legs = fib :: List.map leg policy_cfgs in
    { claims; report = Oracle.judge p ~sem ~fib:fib.run ~nat; legs }
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
  let policy_verdicts ev =
    let base = ev.report.Oracle.fib.Fiber_backend.outcome in
    List.map (fun l -> (l, policy_verdict base l.run)) (List.tl ev.legs)
  in
  let policy_diffs ev =
    List.filter_map
      (fun (l, v) ->
        if v = Oracle.Diff then Some (l.name, l.run.Fiber_backend.outcome) else None)
      (policy_verdicts ev)
  in
  (* The analyzer-vs-backends soundness verdict: a crash in the
     analyzer, a Safe/Must claim an outcome contradicts, or, leg by leg
     (model errors aside), a dispatch outside its site's resolved
     candidates, a handler-less Unhandled at a site not flagged
     +toplevel/+via-c, or a counter above its finite static bound.  It
     stops at the first contradiction and counts the checks it made. *)
  let soundness ev =
    Option.iter (fun _ -> incr analyzed) ev.claims;
    match ev.claims with
    | None -> None
    | Some (Error e) -> Some (Printf.sprintf "analyzer raised %s" (Printexc.to_string e))
    | Some (Ok claims) -> (
        match Static.check ~fiber_config ~sem_one_shot claims ev.report with
        | Some _ as s -> s
        | None ->
            List.find_map
              (fun l ->
                let tag msg = Printf.sprintf "[%s] %s" l.name msg in
                match l.run.Fiber_backend.outcome with
                | Outcome.Model_error _ -> None
                | _ ->
                    dispatch_checks := !dispatch_checks + l.dispatches;
                    Option.map tag
                      (match l.misdispatch with
                      | Some _ as m -> m
                      | None ->
                          incr bound_checks;
                          l.overbound))
              ev.legs)
  in
  (* The per-site resolution census feeds the metrics registry (when
     enabled); recorded once per campaign program, not per shrink
     step. *)
  let record_resolution ev =
    match ev.claims with
    | Some (Ok c) when Retrofit_metrics.Metrics.on () ->
        List.iter
          (fun (s : A.Resolve.site) ->
            Retrofit_metrics.Metrics.inc
              ~labels:[ ("class", A.Resolve.klass_to_string s.A.Resolve.r_class) ]
              "perform_site_resolution_total")
          (A.Resolve.all_sites c.A.Analyze.resolve)
    | _ -> ()
  in
  let i = ref 0 in
  while !i < count && List.length !failures < max_failures do
    let s = prog_seed ~seed !i in
    let p = Gen.program_of_seed s in
    let ev = evaluate p s in
    let r = ev.report in
    List.iter (fun (name, v) -> tally agree skip name v) r.Oracle.pairs;
    List.iter
      (fun l ->
        audit_checks := !audit_checks + l.run.Fiber_backend.audit_checks;
        audit_visits := !audit_visits + l.run.Fiber_backend.audit_visits;
        dwarf_probes := !dwarf_probes + l.run.Fiber_backend.dwarf_probes)
      ev.legs;
    List.iter (fun (l, v) -> tally pagree pskip l.name v) (policy_verdicts ev);
    record_resolution ev;
    let analysis = soundness ev in
    let offending = policy_diffs ev in
    if (not (Oracle.ok r)) || analysis <> None || offending <> [] then begin
      let failing ev =
        (not (Oracle.ok ev.report)) || soundness ev <> None || policy_diffs ev <> []
      in
      (* the minimized program with its evaluation *)
      let shrunk =
        if not shrink then None
        else
          let q = Shrink.minimize ~interesting:(fun q -> failing (evaluate q s)) p in
          Some (q, evaluate q s)
      in
      let analysis =
        match (analysis, shrunk) with
        | None, _ | _, None -> analysis
        | Some _, Some (_, eq) -> (
            (* re-derive the message for the minimized program, keeping
               the original if shrinking converged on an oracle diff *)
            match soundness eq with None -> analysis | some -> some)
      in
      let policy, policy_outcome =
        (* name the policy the shrunk program still disagrees on when
           there is one, else the original offender *)
        let shrunk_offender =
          match shrunk with Some (_, eq) -> policy_diffs eq | None -> []
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
          shrunk = Option.map fst shrunk;
          shrunk_report = Option.map (fun (_, eq) -> eq.report) shrunk;
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
  Buffer.add_string b (F.Ir.program_to_string f.report.Oracle.program);
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
           (Outcome.to_string f.report.Oracle.fib.Fiber_backend.outcome))
  | _ -> ());
  (match (f.shrunk, f.shrunk_report) with
  | Some q, Some r ->
      Buffer.add_string b
        (Printf.sprintf "shrunk to %d nodes:\n" (Fragment.program_nodes q));
      Buffer.add_string b (F.Ir.program_to_string q);
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
