module F = Retrofit_fiber

type esc = { eff : Bits.t; exn : Bits.t }

type t = {
  cfg : Cfg.t;
  lin : Linearity.t;
  resolve : Resolve.t;
  multishot : bool;
  esc : esc array;  (* by function id *)
}

let unhandled = "Unhandled"

let invalid_argument = "Invalid_argument"

let division_by_zero = "Division_by_zero"

let esc_empty = { eff = Bits.empty; exn = Bits.empty }

let esc_union a b =
  if a == esc_empty then b
  else if b == esc_empty then a
  else { eff = Bits.union a.eff b.eff; exn = Bits.union a.exn b.exn }

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
let release t (s : Cfg.spec) =
  let body = t.esc.(s.Cfg.sp_body) in
  let cases =
    List.fold_left
      (fun acc g -> esc_union acc t.esc.(g))
      esc_empty s.Cfg.sp_cases
  in
  {
    eff = Bits.union cases.eff (Bits.diff body.eff s.Cfg.sp_effs);
    exn = Bits.union cases.exn (Bits.diff body.exn s.Cfg.sp_exns);
  }

let fixpoint t =
  let cfg = t.cfg in
  let exn_id = Cfg.exn_id cfg in
  let exn_universe =
    Bits.init (Array.length cfg.Cfg.compiled.F.Compile.exn_names) (fun _ -> true)
  in
  let div0 = exn_id division_by_zero and bare = exn_id unhandled in
  let second = exn_id invalid_argument in
  let order = cfg.Cfg.reach_order in
  Cfg.fixpoint (fun () ->
    let changed = ref false in
    (* escapes flow callee-to-caller: walking callees first makes deep
       call chains converge in a couple of rounds *)
    for i = Array.length order - 1 downto 0 do
      let f = order.(i) in
      let fsites = t.lin.Linearity.sites.(f) in
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
            let divides = match b with F.Ir.Int n -> n = 0 | _ -> true in
            if divides then { inner with exn = Bits.add div0 inner.exn }
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
              t.esc.(Cfg.fn_id cfg g) args
        | F.Ir.Raise (l, e) ->
            let inner = ev e in
            { inner with exn = Bits.add (exn_id l) inner.exn }
        | F.Ir.Trywith (b, cases) ->
            let eb = ev b in
            let handled =
              Bits.of_list (List.map (fun (l, _, _) -> exn_id l) cases)
            in
            List.fold_left
              (fun acc (_, _, ce) -> esc_union acc (ev ce))
              { eb with exn = Bits.diff eb.exn handled }
              cases
        | F.Ir.Perform (l, p) ->
            let inner = ev p in
            let l = Cfg.eff_id cfg l in
            let exn =
              match Resolve.boundary t.resolve f l with
              | false, -1 -> inner.exn
              | _ -> Bits.add bare inner.exn
            in
            { eff = Bits.add l inner.eff; exn }
        | F.Ir.Handle h ->
            List.fold_left
              (fun acc a -> esc_union acc (ev a))
              (release t (Cfg.spec_of cfg f h))
              h.F.Ir.body_args
        | F.Ir.Continue (k, v) | F.Ir.Discontinue (k, _, v) ->
            let idx = !n in
            incr n;
            let ek = ev k in
            let evv = ev v in
            let inner = esc_union ek evv in
            let site = fsites.(idx) in
            let specs = Linearity.site_specs t.lin site in
            let rel =
              Bits.fold
                (fun i acc -> esc_union acc (release t cfg.Cfg.specs.(i)))
                specs esc_empty
            in
            let rel =
              match e with
              | F.Ir.Discontinue (_, l, _) ->
                  let l = exn_id l in
                  let injected =
                    Bits.fold
                      (fun i acc ->
                        if Bits.mem l cfg.Cfg.specs.(i).Cfg.sp_exns then acc
                        else Bits.add l acc)
                      specs
                      (if Bits.is_empty specs then Bits.singleton l
                       else Bits.empty)
                  in
                  { rel with exn = Bits.union injected rel.exn }
              | _ -> rel
            in
            let rel =
              (* Under a multishot runtime a second resume clones the
                 fiber chain instead of raising, so resume sites stop
                 being Invalid_argument sources. *)
              if
                (not t.multishot)
                && (Linearity.site_may_second t.lin site || Bits.is_empty specs)
              then { rel with exn = Bits.add second rel.exn }
              else rel
            in
            esc_union inner rel
        | F.Ir.Extcall (c, args) ->
            let inner =
              List.fold_left (fun acc a -> esc_union acc (ev a)) esc_empty args
            in
            (* exceptions cross the C frame (re-raised at the call
               site); effects never do *)
            let c = Cfg.cfun_id cfg c in
            let cb =
              match cfg.Cfg.cfuns.(c) with
              | Cfg.Pure -> Bits.empty
              | Cfg.Calls_back _ ->
                  let g = Cfg.callback cfg c in
                  if g >= 0 then t.esc.(g).exn else Bits.empty
              | Cfg.Opaque -> exn_universe
            in
            { inner with exn = Bits.union cb inner.exn }
      in
      let e = ev cfg.Cfg.fns.(f).F.Ir.body in
      let old = t.esc.(f) in
      if not (Bits.subset e.eff old.eff && Bits.subset e.exn old.exn) then begin
        t.esc.(f) <- esc_union old e;
        changed := true
      end
    done;
    !changed)

let analyze ~multishot (cfg : Cfg.t) (lin : Linearity.t) (resolve : Resolve.t)
    =
  let esc = Array.make (Array.length cfg.Cfg.fns) esc_empty in
  let t = { cfg; lin; resolve; multishot; esc } in
  fixpoint t;
  t

(* ------------------------------------------------------------------ *)
(* Diagnostics. *)

let spec_origin (t : t) (s : Cfg.spec) label case_fn =
  Printf.sprintf "%s captured by %s (handle in %s)" label case_fn
    t.cfg.Cfg.fns.(s.Cfg.sp_in).F.Ir.fn_name

let clause_live_exn t (s : Cfg.spec) label =
  Bits.mem label t.esc.(s.Cfg.sp_body).exn
  || Array.exists
       (Array.exists (fun site ->
            site.Linearity.s_kind = Linearity.Rdiscontinue label
            && Bits.mem s.Cfg.sp_id (Linearity.site_specs t.lin site)))
       t.lin.Linearity.sites

let diagnostics t =
  let cfg = t.cfg in
  let out = ref [] in
  let add d = out := d :: !out in
  (* perform-site lints *)
  Array.iter
    (fun f ->
      let fname = cfg.Cfg.fns.(f).F.Ir.fn_name in
      Cfg.iter_expr
        (fun e ->
          match e with
          | F.Ir.Perform (l, _) ->
              let top, via = Resolve.boundary t.resolve f (Cfg.eff_id cfg l) in
              (* rendering the site and call path is the expensive
                 part of this walk: do it only for firing lints *)
              let site = lazy (F.Ir.expr_to_string e) in
              let path = lazy (Cfg.path_to cfg f) in
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
              if via >= 0 then
                add
                  {
                    Diag.kind =
                      Diag.Effect_across_c_frame
                        {
                          effect_name = l;
                          cfun = cfg.Cfg.compiled.F.Compile.cfun_names.(via);
                        };
                    verdict = Diag.May;
                    fn = fname;
                    path = path ();
                    site = site ();
                  }
          | _ -> ())
        cfg.Cfg.fns.(f).F.Ir.body)
    cfg.Cfg.reach_order;
  (* handler-clause and continuation lints, per installation *)
  Array.iter
    (fun (s : Cfg.spec) ->
      if cfg.Cfg.reachable.(s.Cfg.sp_in) then begin
        let sp = s.Cfg.sp in
        let fname = cfg.Cfg.fns.(s.Cfg.sp_in).F.Ir.fn_name in
        let body = t.esc.(s.Cfg.sp_body) in
        let site = lazy (F.Ir.expr_to_string (F.Ir.Handle sp)) in
        let path = lazy (Cfg.path_to cfg s.Cfg.sp_in) in
        let site = fun () -> Lazy.force site
        and path = fun () -> Lazy.force path in
        let live l = Bits.mem (Cfg.eff_id cfg l) body.eff in
        List.iter
          (fun (l, g) ->
            if not (live l) then
              add
                {
                  Diag.kind =
                    Diag.Dead_handler_clause
                      { clause = Diag.Eff_clause; label = l; case_fn = g };
                  verdict = Diag.Must;
                  fn = fname;
                  path = path ();
                  site = site ();
                })
          sp.F.Ir.effcs;
        List.iter
          (fun (l, g) ->
            if not (clause_live_exn t s (Cfg.exn_id cfg l)) then
              add
                {
                  Diag.kind =
                    Diag.Dead_handler_clause
                      { clause = Diag.Exn_clause; label = l; case_fn = g };
                  verdict = Diag.Must;
                  fn = fname;
                  path = path ();
                  site = site ();
                })
          sp.F.Ir.exncs;
        List.iter
          (fun (l, g) ->
            if live l then begin
              (* the clause can fire, so a continuation is captured *)
              let gid = Cfg.fn_id cfg g in
              let r = Linearity.resumes_in t.lin ~spec:s.Cfg.sp_id ~fn:gid in
              let origin = spec_origin t s l g in
              let escaped = Linearity.is_escaped t.lin s.Cfg.sp_id in
              if r.Linearity.hi >= 2 || escaped then
                add
                  {
                    Diag.kind = Diag.May_resume_twice { origin };
                    (* verified-safe under multishot cloning: the second
                       resume runs a fresh copy instead of raising *)
                    verdict = (if t.multishot then Diag.Safe else Diag.May);
                    fn = fname;
                    path = path ();
                    site = site ();
                  };
              (* raises fall through the counter, so a guaranteed
                 resume only holds if the case function cannot raise *)
              let lo =
                if Bits.is_empty t.esc.(gid).exn then r.Linearity.lo else 0
              in
              if lo = 0 then
                add
                  {
                    Diag.kind = Diag.May_leak { origin };
                    verdict =
                      (if r.Linearity.hi = 0 && not escaped then Diag.Must
                       else Diag.May);
                    fn = fname;
                    path = path ();
                    site = site ();
                  }
            end)
          sp.F.Ir.effcs
      end)
    cfg.Cfg.specs;
  Diag.sorted !out

let escapes_main t l =
  let main = t.cfg.Cfg.compiled.F.Compile.main_index in
  Bits.mem (Cfg.exn_id t.cfg l) t.esc.(main).exn

let unhandled_may t = escapes_main t unhandled

let one_shot_may t = escapes_main t invalid_argument
