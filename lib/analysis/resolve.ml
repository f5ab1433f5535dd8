module F = Retrofit_fiber

type klass = Mono | Poly | Mega

type site = {
  r_fn : string;
  r_idx : int;
  r_label : string;
  r_site : F.Ir.expr;
  r_cands : Bits.t;
  r_top : bool;
  r_via_c : bool;
  r_class : klass;
}

(* Per function and effect label: the handle specs that may be the
   {e nearest} handler above an activation, plus whether the nearest
   barrier may instead be the toplevel or a §5.3 callback frame — and
   then which C function's (-1: none).  [via] keeps the first C function
   found: the diagnostics name one witness, not the set. *)
type rctx = { cands : Bits.t; r_top : bool; via : int }

type t = {
  cfg : Cfg.t;
  ctx : rctx array array;  (* function → effect label *)
  sites : site array array;
}

let bottom = { cands = Bits.empty; r_top = false; via = -1 }

let klass_to_string = function
  | Mono -> "mono"
  | Poly -> "poly"
  | Mega -> "mega"

let outcomes s =
  Bits.cardinal s.r_cands + if s.r_top || s.r_via_c then 1 else 0

let classify s =
  match outcomes s with
  | 0 | 1 -> Mono
  | n when n <= 4 -> Poly
  | _ -> Mega

(* ------------------------------------------------------------------ *)
(* Context propagation, top-down from [main] over calls (same handler
   stack), installations, callback entries (the runtime blanks the
   handler chain: every label is unhandled at the C barrier) and
   resumptions (the reinstated body — and later case-function
   invocations — runs above the resumer's context).  Inside a spec's
   body the labels the spec handles resolve to exactly that spec,
   shadowing every outer candidate.  [entry l] is what flows in for
   label [l]. *)

let join changed ctx g entry =
  let tbl = ctx.(g) in
  for l = 0 to Array.length tbl - 1 do
    let old = tbl.(l) and e = entry l in
    if
      (not (Bits.subset e.cands old.cands))
      || (e.r_top && not old.r_top)
      || (old.via < 0 && e.via >= 0)
    then begin
      tbl.(l) <-
        {
          cands = Bits.union old.cands e.cands;
          r_top = old.r_top || e.r_top;
          via = (if old.via >= 0 then old.via else e.via);
        };
      changed := true
    end
  done

let propagate (cfg : Cfg.t) (lin : Linearity.t) =
  let nf = Array.length cfg.Cfg.fns in
  let ctx =
    Array.init nf (fun _ ->
        Array.make (Array.length cfg.Cfg.compiled.F.Compile.eff_names) bottom)
  in
  let top = { bottom with r_top = true } in
  join (ref false) ctx cfg.Cfg.compiled.F.Compile.main_index (fun _ -> top);
  let via_c = Array.mapi (fun c _ -> { bottom with via = c }) cfg.Cfg.cfuns in
  let own =
    Array.map
      (fun (s : Cfg.spec) -> { bottom with cands = Bits.singleton s.Cfg.sp_id })
      cfg.Cfg.specs
  in
  (* Context entering a spec's body function, from the installer's (or,
     on resumption, the resumer's) context: the spec's own labels
     resolve to the spec alone; everything else flows through. *)
  let enter changed (s : Cfg.spec) outer =
    join changed ctx s.Cfg.sp_body (fun l ->
        if Bits.mem l s.Cfg.sp_effs then own.(s.Cfg.sp_id) else outer.(l))
  in
  (* who can resume which spec depends only on the linearity sites —
     loop-invariant *)
  let resumers =
    Array.map
      (fun (s : Cfg.spec) ->
        if not cfg.Cfg.reachable.(s.Cfg.sp_in) then []
        else
          List.filter
            (fun f ->
              Array.exists
                (fun site -> Bits.mem s.Cfg.sp_id (Linearity.site_specs lin site))
                lin.Linearity.sites.(f))
            (Array.to_list cfg.Cfg.reach_order))
      cfg.Cfg.specs
  in
  Cfg.fixpoint (fun () ->
    let changed = ref false in
    Array.iter
      (fun f ->
        let cf = ctx.(f) in
        let flow l = cf.(l) in
        List.iter (fun g -> join changed ctx g flow) cfg.Cfg.calls.(f);
        List.iter
          (fun i ->
            let s = cfg.Cfg.specs.(i) in
            enter changed s cf;
            List.iter (fun g -> join changed ctx g flow) s.Cfg.sp_cases)
          cfg.Cfg.installs.(f);
        List.iter
          (fun c ->
            let via _ = via_c.(c) in
            match cfg.Cfg.cfuns.(c) with
            | Cfg.Pure -> ()
            | Cfg.Calls_back _ ->
                let g = Cfg.callback cfg c in
                if g >= 0 then join changed ctx g via
            | Cfg.Opaque ->
                for g = 0 to nf - 1 do
                  join changed ctx g via
                done)
          cfg.Cfg.extcalls.(f))
      cfg.Cfg.reach_order;
    Array.iteri
      (fun i (s : Cfg.spec) ->
        List.iter
          (fun r ->
            let cr = ctx.(r) in
            enter changed s cr;
            List.iter
              (fun g -> join changed ctx g (fun l -> cr.(l)))
              s.Cfg.sp_cases)
          resumers.(i))
      cfg.Cfg.specs;
    !changed);
  ctx

(* ------------------------------------------------------------------ *)
(* Sites are enumerated in {e compile} order ({!Cfg.iter_expr_post}):
   index [i] is the [i]-th [PerformI] of the function's compiled code —
   the contract {!runtime_map} relies on. *)

let analyze (cfg : Cfg.t) (lin : Linearity.t) =
  let ctx = propagate cfg lin in
  let sites = Array.make (Array.length cfg.Cfg.fns) [||] in
  Array.iter
    (fun f ->
      let acc = ref [] in
      let n = ref 0 in
      Cfg.iter_expr_post
        (function
          | F.Ir.Perform (l, _) as e ->
              let entry = ctx.(f).(Cfg.eff_id cfg l) in
              let partial =
                {
                  r_fn = cfg.Cfg.fns.(f).F.Ir.fn_name;
                  r_idx = !n;
                  r_label = l;
                  r_site = e;
                  r_cands = entry.cands;
                  r_top = entry.r_top;
                  r_via_c = entry.via >= 0;
                  r_class = Mono;
                }
              in
              acc := { partial with r_class = classify partial } :: !acc;
              incr n
          | _ -> ())
        cfg.Cfg.fns.(f).F.Ir.body;
      sites.(f) <- Array.of_list (List.rev !acc))
    cfg.Cfg.reach_order;
  { cfg; ctx; sites }

let boundary t f l =
  let e = t.ctx.(f).(l) in
  (e.r_top, e.via)

(* Program order, compile order within a function: the deterministic
   iteration every report and check uses. *)
let all_sites t = List.concat_map Array.to_list (Array.to_list t.sites)

let census t =
  List.fold_left
    (fun (m, p, g) s ->
      match s.r_class with
      | Mono -> (m + 1, p, g)
      | Poly -> (m, p + 1, g)
      | Mega -> (m, p, g + 1))
    (0, 0, 0) (all_sites t)

(* Candidates print by their pre-order [spec#N], in that order. *)
let site_to_string t s =
  let specs =
    Bits.fold (fun i acc -> t.cfg.Cfg.specs.(i) :: acc) s.r_cands []
  in
  let cands =
    List.map
      (fun (sp : Cfg.spec) ->
        Printf.sprintf "spec#%d in %s" sp.Cfg.sp_pre
          t.cfg.Cfg.fns.(sp.Cfg.sp_in).F.Ir.fn_name)
      (List.sort
         (fun (a : Cfg.spec) b -> compare a.Cfg.sp_pre b.Cfg.sp_pre)
         specs)
  in
  Printf.sprintf "%s#%d perform %s: %s {%s}%s%s" s.r_fn s.r_idx s.r_label
    (klass_to_string s.r_class)
    (String.concat ", " cands)
    (if s.r_top then " +toplevel" else "")
    (if s.r_via_c then " +via-c" else "")

let path_of t s = Cfg.path_to t.cfg (Cfg.fn_id t.cfg s.r_fn)

let report t =
  let b = Buffer.create 256 in
  let mono, poly, mega = census t in
  Buffer.add_string b
    (Printf.sprintf "handler resolution: mono=%d poly=%d mega=%d\n" mono poly
       mega);
  List.iter
    (fun s ->
      Buffer.add_string b ("  " ^ site_to_string t s);
      let path = path_of t s in
      if path <> [] then
        Buffer.add_string b (" [" ^ String.concat " -> " path ^ "]");
      Buffer.add_char b '\n')
    (all_sites t);
  Buffer.contents b

let diagnostics t =
  let out = ref [] in
  List.iter
    (fun s ->
      if s.r_class = Mega then
        out :=
          {
            Diag.kind =
              Diag.Megamorphic_dispatch
                { effect_name = s.r_label; outcomes = outcomes s };
            verdict = Diag.May;
            fn = s.r_fn;
            path = path_of t s;
            site = F.Ir.expr_to_string s.r_site;
          }
          :: !out)
    (all_sites t);
  Diag.sorted !out

(* ------------------------------------------------------------------ *)
(* Perform pcs to static sites: the [i]-th site of a function is its
   [i]-th [PerformI] in [entry, code_end) — both sides enumerate in
   compile order.  A spec id already is the handle index [on_perform]
   reports, so sites are the only thing to map. *)

let runtime_map t =
  let c = t.cfg.Cfg.compiled in
  let site_of_pc = Hashtbl.create 64 in
  Array.iter
    (fun (cf : F.Compile.cfn) ->
      let fsites = t.sites.(cf.F.Compile.fn_index) in
      let k = ref 0 in
      for pc = cf.F.Compile.entry to cf.F.Compile.code_end - 1 do
        match c.F.Compile.code.(pc) with
        | F.Ir.PerformI eid ->
            (* the mapping is only trusted when the labels agree *)
            if
              !k < Array.length fsites
              && Cfg.eff_id t.cfg fsites.(!k).r_label = eid
            then Hashtbl.replace site_of_pc pc fsites.(!k);
            incr k
        | _ -> ()
      done)
    c.F.Compile.fns;
  site_of_pc
