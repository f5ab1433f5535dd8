module A = Retrofit_analysis

(* The two fragment C functions are fully understood: [Ext_id] never
   re-enters the program, [Callback f] re-enters through exactly [f].
   Anything else (the fragment has none) stays opaque. *)
let cfun_model c =
  match Fragment.cfun c with
  | Fragment.Ext_id -> A.Cfg.Pure
  | Fragment.Callback f -> A.Cfg.Calls_back f
  | Fragment.Foreign -> A.Cfg.Opaque

type claims = A.Analyze.result

(* The campaign cross-checks program-level claims (verdicts, handler
   resolution, cost bounds) against executions; the rendered per-site
   lint findings are a CLI concern, so their construction is skipped
   here — it is a third of the analyzer's time budget. *)
let analyze ?compiled (p : Retrofit_fiber.Ir.program) : claims =
  A.Analyze.analyze ~cfun_model ?compiled ~lints:false p

(* The per-backend verdict.  The must pass's execution follows the
   one-shot discipline; it also predicts a multi-shot backend as long
   as it never actually resumed a dead continuation.  Otherwise
   multi-shot claims fall back to the flow analysis, which is sound
   for every discipline. *)
let verdicts ~one_shot (c : claims) =
  let must =
    if one_shot || not c.A.Analyze.hit_violation then c.A.Analyze.must
    else A.Analyze.M_unknown
  in
  ( A.Analyze.refine ~flow_may:c.A.Analyze.flow_unhandled_may ~must "Unhandled",
    A.Analyze.refine ~flow_may:c.A.Analyze.flow_one_shot_may ~must
      "Invalid_argument" )

let contradiction ?(one_shot = true) (c : claims) (o : Outcome.t) :
    string option =
  let vu, vo = verdicts ~one_shot c in
  match o with
  | Outcome.Unhandled ->
      if vu = A.Diag.Safe then
        Some "analyzer claimed safe-from-Unhandled; backend observed Unhandled"
      else None
  | Outcome.One_shot ->
      if vo = A.Diag.Safe then
        Some
          "analyzer claimed safe-from-one-shot; backend observed a one-shot \
           violation"
      else None
  | Outcome.Value _ | Outcome.Exn _ ->
      if vu = A.Diag.Must then
        Some
          (Printf.sprintf
             "analyzer claimed must-Unhandled; backend observed %s"
             (Outcome.to_string o))
      else if vo = A.Diag.Must then
        Some
          (Printf.sprintf
             "analyzer claimed must-one-shot; backend observed %s"
             (Outcome.to_string o))
      else None
  | Outcome.Fuel_out | Outcome.Model_error _ -> None

(* All three oracle backends at once; [fiber_config]/[sem_one_shot]
   mirror the campaign's run parameters so each backend is judged
   against the discipline it actually enforces. *)
let check ?(fiber_config = Retrofit_fiber.Config.mc) ?(sem_one_shot = true)
    (c : claims) (r : Oracle.report) : string option =
  let probe name one_shot o =
    match contradiction ~one_shot c o with
    | Some msg -> Some (Printf.sprintf "%s: %s" name msg)
    | None -> None
  in
  match probe "semantics" sem_one_shot r.Oracle.sem with
  | Some _ as s -> s
  | None -> (
      match
        probe "fiber"
          (not fiber_config.Retrofit_fiber.Config.multishot)
          r.Oracle.fib.Fiber_backend.outcome
      with
      | Some _ as s -> s
      | None -> probe "native" true r.Oracle.nat)

(* ------------------------------------------------------------------ *)
(* Handler-resolution and cost-bound soundness.  The resolution pass
   claims a candidate-handler set per perform site and the cost pass a
   per-counter upper bound per stack policy; both are held against the
   campaign's fiber legs themselves, audited and DWARF-sampled as they
   are: each leg's [on_perform] stream and final counter table.  The
   runtime map is built from the compiled form inside [claims]; the
   campaign analyzes the very value its legs execute
   ({!Fiber_backend.program}), so the pcs are the ones [on_perform]
   reports, and a spec id is the handle index it reports. *)

let runtime_map (c : claims) = A.Resolve.runtime_map c.A.Analyze.resolve

let dispatch_contradiction (c : claims) rt (observed : (int * int) list) :
    string option =
  let resolve = c.A.Analyze.resolve in
  List.find_map
    (fun (pc, handler) ->
      match Hashtbl.find_opt rt pc with
      | None ->
          Some
            (Printf.sprintf
               "perform executed at pc %d, but handler resolution mapped no \
                site there (reachability unsoundness or stale site map)"
               pc)
      | Some s ->
          if handler = -1 then
            if s.A.Resolve.r_top || s.A.Resolve.r_via_c then None
            else
              Some
                (Printf.sprintf
                   "site resolved to handlers only, yet it reached a \
                    handler-less boundary: %s"
                   (A.Resolve.site_to_string resolve s))
          else if handler >= 0 && A.Bits.mem handler s.A.Resolve.r_cands then
            None
          else
            Some
              (Printf.sprintf
                 "%s site dispatched to handle descriptor %d outside its \
                  candidate set: %s"
                 (A.Resolve.klass_to_string s.A.Resolve.r_class)
                 handler
                 (A.Resolve.site_to_string resolve s)))
    observed

let bound_contradiction (c : claims) ~(config : Retrofit_fiber.Config.t)
    (counters : Retrofit_util.Counter.t) : string option =
  let { Retrofit_fiber.Config.policy; multishot; red_zone; _ } = config in
  let bounds = A.Costbound.counter_bounds c.A.Analyze.cost ~policy ~multishot ~red_zone in
  List.find_map
    (fun (name, b) ->
      match A.Costbound.finite b with
      | None -> None
      | Some limit ->
          let v = Retrofit_util.Counter.value counters name in
          if v > limit then
            Some
              (Printf.sprintf
                 "counter %s measured %d under policy %s%s, exceeding its \
                  static bound %d"
                 (Retrofit_util.Counter.to_string name)
                 v
                 (Retrofit_fiber.Stack_policy.name policy)
                 (if multishot then " (multishot)" else "")
                 limit)
          else None)
    bounds
