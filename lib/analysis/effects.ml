module F = Retrofit_fiber
module SS = Set.Make (String)
module IS = Set.Make (Int)

type esc = { eff : SS.t; exn : SS.t }

type t = {
  cfg : Cfg.t;
  lin : Linearity.t;
  resolve : Resolve.t;
  multishot : bool;
  esc_tbl : (string, esc) Hashtbl.t;
}

let unhandled = "Unhandled"

let invalid_argument = "Invalid_argument"

let division_by_zero = "Division_by_zero"

let esc_empty = { eff = SS.empty; exn = SS.empty }

let esc_union a b = { eff = SS.union a.eff b.eff; exn = SS.union a.exn b.exn }

let escape t fname =
  match Hashtbl.find_opt t.esc_tbl fname with Some e -> e | None -> esc_empty

let exnc_labels (sp : F.Ir.handle_spec) = List.map fst sp.F.Ir.exncs

(* ------------------------------------------------------------------ *)
(* The escape fixpoint: per function, which effect labels may be
   performed and escape the function's dynamic extent, and which
   exception labels may be raised out of it.  "Unhandled" is an ordinary
   label here — the machine raises it at the perform site when
   {!Resolve.boundary} says no handler may be above — and so is the
   "Invalid_argument" of a second resume, injected at sites the
   linearity analysis flagged.  Everything a resumed body can still do
   (its remaining performs, its exceptions, the injected label of a
   discontinue) surfaces at the resume site. *)

(* What an installation lets out: its body's escapes minus the labels
   it handles, plus everything its case functions can do. *)
let release t (sp : F.Ir.handle_spec) =
  let body = escape t sp.F.Ir.body_fn in
  let cases =
    List.fold_left (fun acc g -> esc_union acc (escape t g)) esc_empty
      (Cfg.case_fns sp)
  in
  {
    eff =
      SS.union cases.eff
        (SS.filter (fun l -> not (List.mem l (Cfg.effc_labels sp))) body.eff);
    exn =
      SS.union cases.exn
        (SS.filter (fun l -> not (List.mem l (exnc_labels sp))) body.exn);
  }

let fixpoint t =
  let cfg = t.cfg in
  let exn_universe = SS.of_list cfg.Cfg.exn_labels in
  (* escapes flow callee-to-caller: walking callees first makes deep
     call chains converge in a couple of rounds *)
  let fns_rev = List.rev cfg.Cfg.reach_order in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : F.Ir.fn) ->
        let fname = f.F.Ir.fn_name in
        let fsites = Linearity.sites_of t.lin fname in
        let n = ref 0 in
        let rec ev (e : F.Ir.expr) : esc =
          match e with
          | F.Ir.Int _ | F.Ir.Var _ -> esc_empty
          | F.Ir.Binop ((F.Ir.Div | F.Ir.Mod), a, b) ->
              (* subterms are walked left-to-right with explicit
                 sequencing throughout [ev]: the site counter must claim
                 indices in enumeration (pre)order *)
              let ea = ev a in
              let eb = ev b in
              let inner = esc_union ea eb in
              let divides =
                match b with F.Ir.Int n -> n = 0 | _ -> true
              in
              if divides then
                { inner with exn = SS.add division_by_zero inner.exn }
              else inner
          | F.Ir.Binop (_, a, b)
          | F.Ir.Let (_, a, b)
          | F.Ir.Seq (a, b)
          | F.Ir.Repeat (a, b) ->
              let ea = ev a in
              let eb = ev b in
              esc_union ea eb
          | F.Ir.If (a, b, c) ->
              let ea = ev a in
              let eb = ev b in
              let ec = ev c in
              esc_union ea (esc_union eb ec)
          | F.Ir.Call (g, args) ->
              List.fold_left
                (fun acc a -> esc_union acc (ev a))
                (escape t g) args
          | F.Ir.Raise (l, e) ->
              let inner = ev e in
              { inner with exn = SS.add l inner.exn }
          | F.Ir.Trywith (b, cases) ->
              let eb = ev b in
              let handled = List.map (fun (l, _, _) -> l) cases in
              List.fold_left
                (fun acc (_, _, ce) -> esc_union acc (ev ce))
                {
                  eb with
                  exn = SS.filter (fun l -> not (List.mem l handled)) eb.exn;
                }
                cases
          | F.Ir.Perform (l, p) ->
              let inner = ev p in
              let exn =
                match Resolve.boundary t.resolve fname l with
                | false, None -> inner.exn
                | _ -> SS.add unhandled inner.exn
              in
              { eff = SS.add l inner.eff; exn }
          | F.Ir.Handle h ->
              List.fold_left
                (fun acc a -> esc_union acc (ev a))
                (release t h) h.F.Ir.body_args
          | F.Ir.Continue (k, v) | F.Ir.Discontinue (k, _, v) ->
              let idx = !n in
              incr n;
              let ek = ev k in
              let evv = ev v in
              let inner = esc_union ek evv in
              let site = fsites.(idx) in
              let specs = Linearity.site_specs t.lin site in
              let rel =
                IS.fold
                  (fun i acc ->
                    esc_union acc (release t cfg.Cfg.specs.(i).Cfg.sp))
                  specs esc_empty
              in
              let rel =
                match e with
                | F.Ir.Discontinue (_, l, _) ->
                    let injected =
                      IS.fold
                        (fun i acc ->
                          if List.mem l (exnc_labels cfg.Cfg.specs.(i).Cfg.sp)
                          then acc
                          else SS.add l acc)
                        specs
                        (if IS.is_empty specs then SS.singleton l else SS.empty)
                    in
                    { rel with exn = SS.union injected rel.exn }
                | _ -> rel
              in
              let rel =
                (* Under a multishot runtime a second resume clones the
                   fiber chain instead of raising, so resume sites stop
                   being Invalid_argument sources. *)
                if
                  (not t.multishot)
                  && (Linearity.site_may_second t.lin site || IS.is_empty specs)
                then { rel with exn = SS.add invalid_argument rel.exn }
                else rel
              in
              esc_union inner rel
          | F.Ir.Extcall (c, args) ->
              let inner =
                List.fold_left
                  (fun acc a -> esc_union acc (ev a))
                  esc_empty args
              in
              (* exceptions cross the C frame (re-raised at the call
                 site); effects never do *)
              let cb =
                match cfg.Cfg.cfun_model c with
                | Cfg.Pure -> SS.empty
                | Cfg.Calls_back g -> (escape t g).exn
                | Cfg.Opaque -> exn_universe
              in
              { inner with exn = SS.union cb inner.exn }
        in
        let e = ev f.F.Ir.body in
        let old = escape t fname in
        let merged = esc_union old e in
        if
          not
            (SS.equal old.eff merged.eff && SS.equal old.exn merged.exn)
        then begin
          Hashtbl.replace t.esc_tbl fname merged;
          changed := true
        end)
      fns_rev
  done

let analyze ~multishot (cfg : Cfg.t) (lin : Linearity.t) (resolve : Resolve.t)
    =
  let t = { cfg; lin; resolve; multishot; esc_tbl = Hashtbl.create 16 } in
  fixpoint t;
  t

(* ------------------------------------------------------------------ *)
(* Diagnostics. *)

let spec_origin (s : Cfg.spec) label case_fn =
  Printf.sprintf "%s captured by %s (handle in %s)" label case_fn s.Cfg.sp_in

let clause_live_exn t (s : Cfg.spec) label =
  SS.mem label (escape t s.Cfg.sp.F.Ir.body_fn).exn
  || Hashtbl.fold
       (fun _ sites acc ->
         acc
         || Array.exists
              (fun site ->
                match site.Linearity.s_kind with
                | Linearity.Rdiscontinue l ->
                    l = label
                    && IS.mem s.Cfg.sp_id (Linearity.site_specs t.lin site)
                | Linearity.Rcontinue -> false)
              sites)
       t.lin.Linearity.sites false

let diagnostics t =
  let cfg = t.cfg in
  let out = ref [] in
  let add d = out := d :: !out in
  (* perform-site lints *)
  List.iter
    (fun (f : F.Ir.fn) ->
      let fname = f.F.Ir.fn_name in
      Cfg.iter_expr
          (fun e ->
            match e with
            | F.Ir.Perform (l, _) ->
                let top, via = Resolve.boundary t.resolve fname l in
                (* rendering the site and call path is the expensive
                   part of this walk: do it only for firing lints *)
                let site = lazy (F.Ir.expr_to_string e) in
                let path = lazy (Cfg.path_to cfg fname) in
                let site = fun () -> Lazy.force site
                and path = fun () -> Lazy.force path in
                if top then
                  add
                    {
                      Diag.kind = Diag.Possibly_unhandled { effect_name = l };
                      verdict = Diag.May;
                      fn = fname;
                      path = path ();
                      site = site ();
                    };
                (match via with
                | Some c ->
                    add
                      {
                        Diag.kind =
                          Diag.Effect_across_c_frame
                            { effect_name = l; cfun = c };
                        verdict = Diag.May;
                        fn = fname;
                        path = path ();
                        site = site ();
                      }
                | None -> ())
            | _ -> ())
        f.F.Ir.body)
    cfg.Cfg.reach_order;
  (* handler-clause and continuation lints, per installation *)
  Array.iter
    (fun (s : Cfg.spec) ->
      if Cfg.is_reachable cfg s.Cfg.sp_in then begin
        let sp = s.Cfg.sp in
        let body = escape t sp.F.Ir.body_fn in
        let site = lazy (F.Ir.expr_to_string (F.Ir.Handle sp)) in
        let path = lazy (Cfg.path_to cfg s.Cfg.sp_in) in
        let site = fun () -> Lazy.force site
        and path = fun () -> Lazy.force path in
        List.iter
          (fun (l, g) ->
            if not (SS.mem l body.eff) then
              add
                {
                  Diag.kind =
                    Diag.Dead_handler_clause
                      { clause = Diag.Eff_clause; label = l; case_fn = g };
                  verdict = Diag.Must;
                  fn = s.Cfg.sp_in;
                  path = path ();
                  site = site ();
                })
          sp.F.Ir.effcs;
        List.iter
          (fun (l, g) ->
            if not (clause_live_exn t s l) then
              add
                {
                  Diag.kind =
                    Diag.Dead_handler_clause
                      { clause = Diag.Exn_clause; label = l; case_fn = g };
                  verdict = Diag.Must;
                  fn = s.Cfg.sp_in;
                  path = path ();
                  site = site ();
                })
          sp.F.Ir.exncs;
        List.iter
          (fun (l, g) ->
            if SS.mem l body.eff then begin
              (* the clause can fire, so a continuation is captured *)
              let r = Linearity.resumes_in t.lin ~spec:s.Cfg.sp_id ~fn:g in
              let origin = spec_origin s l g in
              if r.Linearity.hi >= 2 || Linearity.is_escaped t.lin s.Cfg.sp_id
              then
                add
                  {
                    Diag.kind = Diag.May_resume_twice { origin };
                    (* verified-safe under multishot cloning: the second
                       resume runs a fresh copy instead of raising *)
                    verdict = (if t.multishot then Diag.Safe else Diag.May);
                    fn = s.Cfg.sp_in;
                    path = path ();
                    site = site ();
                  };
              (* raises fall through the counter, so a guaranteed
                 resume only holds if the case function cannot raise *)
              let lo =
                if SS.is_empty (escape t g).exn then r.Linearity.lo else 0
              in
              if lo = 0 then
                add
                  {
                    Diag.kind = Diag.May_leak { origin };
                    verdict =
                      (if
                         r.Linearity.hi = 0
                         && not (Linearity.is_escaped t.lin s.Cfg.sp_id)
                       then Diag.Must
                       else Diag.May);
                    fn = s.Cfg.sp_in;
                    path = path ();
                    site = site ();
                  }
            end)
          sp.F.Ir.effcs
      end)
    cfg.Cfg.specs;
  Diag.sorted !out

let unhandled_may t =
  SS.mem unhandled (escape t t.cfg.Cfg.program.F.Ir.main).exn

let one_shot_may t =
  SS.mem invalid_argument (escape t t.cfg.Cfg.program.F.Ir.main).exn
