module F = Retrofit_fiber
module IS = Set.Make (Int)

type klass = Mono | Poly | Mega

type site = {
  r_fn : string;
  r_idx : int;
  r_label : string;
  r_site : string;
  r_cands : IS.t;
  r_top : bool;
  r_via_c : bool;
  r_class : klass;
}

(* Per function and effect label: the handle specs that may be the
   {e nearest} handler above an activation, plus whether the nearest
   barrier may instead be the toplevel or a §5.3 callback frame — and
   then which C function's.  [via] keeps the first C function found:
   the diagnostics name one witness, not the set. *)
type rctx = { cands : IS.t; r_top : bool; via : string option }

type t = {
  cfg : Cfg.t;
  ctx : (string, (string, rctx) Hashtbl.t) Hashtbl.t;
  sites : (string, site array) Hashtbl.t;
}

let bottom = { cands = IS.empty; r_top = false; via = None }

let klass_to_string = function
  | Mono -> "mono"
  | Poly -> "poly"
  | Mega -> "mega"

let outcomes s =
  IS.cardinal s.r_cands + if s.r_top || s.r_via_c then 1 else 0

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
   shadowing every outer candidate. *)

let ctx_of ctx fname =
  match Hashtbl.find_opt ctx fname with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.replace ctx fname tbl;
      tbl

let entry_of ctx fname label =
  match Hashtbl.find_opt ctx fname with
  | Some tbl -> (
      match Hashtbl.find_opt tbl label with Some e -> e | None -> bottom)
  | None -> bottom

let join changed ctx fname entries =
  let tbl = ctx_of ctx fname in
  List.iter
    (fun (l, e) ->
      let old =
        match Hashtbl.find_opt tbl l with Some o -> o | None -> bottom
      in
      let merged =
        {
          cands = IS.union old.cands e.cands;
          r_top = old.r_top || e.r_top;
          via = (match old.via with Some _ -> old.via | None -> e.via);
        }
      in
      if
        not
          (IS.equal merged.cands old.cands
          && merged.r_top = old.r_top
          && merged.via == old.via)
      then begin
        Hashtbl.replace tbl l merged;
        changed := true
      end)
    entries

let entries_of ctx fname =
  Hashtbl.fold (fun l e acc -> (l, e) :: acc) (ctx_of ctx fname) []

let spec_of cfg fname (h : F.Ir.handle_spec) =
  List.find (fun (s : Cfg.spec) -> s.Cfg.sp == h) (Cfg.specs_inside cfg fname)

(* Context entering a spec's body function, from the installer's (or,
   on resumption, the resumer's) entries: the spec's own labels resolve
   to the spec alone; everything else flows through. *)
let body_entries (s : Cfg.spec) outer =
  let own = Cfg.effc_labels s.Cfg.sp in
  List.map (fun l -> (l, { bottom with cands = IS.singleton s.Cfg.sp_id })) own
  @ List.filter (fun (l, _) -> not (List.mem l own)) outer

let resumer_fns (lin : Linearity.t) (s : Cfg.spec) =
  let out = ref [] in
  Hashtbl.iter
    (fun fname sites ->
      if
        Array.exists
          (fun site -> IS.mem s.Cfg.sp_id (Linearity.site_specs lin site))
          sites
      then out := fname :: !out)
    lin.Linearity.sites;
  !out

(* The propagation structure of a function — its calls, installations
   and external calls — is fixed; only the contexts joined through it
   change between rounds.  Summarising each reachable function (and
   resolving every [Handle] node to its spec) once keeps the fixpoint
   rounds free of AST walks and spec lookups. *)
type fn_summary = {
  s_calls : string list;
  s_handles : (Cfg.spec * string list) list;  (** spec, its case fns *)
  s_extcalls : (string * Cfg.cfun_model) list;
}

let summarize_fns (cfg : Cfg.t) =
  List.map
    (fun (f : F.Ir.fn) ->
      let fname = f.F.Ir.fn_name in
      let calls = ref [] and handles = ref [] and exts = ref [] in
      Cfg.iter_expr
        (fun e ->
          match e with
          | F.Ir.Call (g, _) -> calls := g :: !calls
          | F.Ir.Handle h ->
              handles := (spec_of cfg fname h, Cfg.case_fns h) :: !handles
          | F.Ir.Extcall (c, _) -> exts := (c, cfg.Cfg.cfun_model c) :: !exts
          | _ -> ())
        f.F.Ir.body;
      (fname, { s_calls = !calls; s_handles = !handles; s_extcalls = !exts }))
    cfg.Cfg.reach_order

let propagate (cfg : Cfg.t) (lin : Linearity.t) =
  let ctx : (string, (string, rctx) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  join (ref false) ctx cfg.Cfg.program.F.Ir.main
    (List.map (fun l -> (l, { bottom with r_top = true })) cfg.Cfg.eff_labels);
  let all_via_c c =
    List.map (fun l -> (l, { bottom with via = Some c })) cfg.Cfg.eff_labels
  in
  let summaries = summarize_fns cfg in
  (* who can resume which spec depends only on the linearity sites —
     loop-invariant, as are each spec's own case functions *)
  let resumers =
    Array.map
      (fun (s : Cfg.spec) ->
        if Cfg.is_reachable cfg s.Cfg.sp_in then resumer_fns lin s else [])
      cfg.Cfg.specs
  in
  let spec_cases =
    Array.map (fun (s : Cfg.spec) -> Cfg.case_fns s.Cfg.sp) cfg.Cfg.specs
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    List.iter
      (fun (fname, s) ->
        let cf = entries_of ctx fname in
        List.iter (fun g -> join changed ctx g cf) s.s_calls;
        List.iter
          (fun (sp, cases) ->
            join changed ctx sp.Cfg.sp.F.Ir.body_fn (body_entries sp cf);
            List.iter (fun g -> join changed ctx g cf) cases)
          s.s_handles;
        List.iter
          (fun (c, model) ->
            match model with
            | Cfg.Pure -> ()
            | Cfg.Calls_back g -> join changed ctx g (all_via_c c)
            | Cfg.Opaque ->
                List.iter
                  (fun g -> join changed ctx g (all_via_c c))
                  cfg.Cfg.fn_names)
          s.s_extcalls)
      summaries;
    Array.iteri
      (fun i (s : Cfg.spec) ->
        List.iter
          (fun r ->
            let cr = entries_of ctx r in
            join changed ctx s.Cfg.sp.F.Ir.body_fn (body_entries s cr);
            List.iter (fun g -> join changed ctx g cr) spec_cases.(i))
          resumers.(i))
      cfg.Cfg.specs
  done;
  ctx

(* ------------------------------------------------------------------ *)
(* Sites are enumerated in {e compile} order ({!Cfg.iter_expr_post}):
   index [i] is the [i]-th [PerformI] of the function's compiled code —
   the contract {!runtime_map} relies on. *)

let analyze (cfg : Cfg.t) (lin : Linearity.t) =
  let ctx = propagate cfg lin in
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (f : F.Ir.fn) ->
      let fname = f.F.Ir.fn_name in
      let acc = ref [] in
      let n = ref 0 in
      Cfg.iter_expr_post
        (function
          | F.Ir.Perform (l, _) as e ->
              let entry = entry_of ctx fname l in
              let partial =
                {
                  r_fn = fname;
                  r_idx = !n;
                  r_label = l;
                  r_site = F.Ir.expr_to_string e;
                  r_cands = entry.cands;
                  r_top = entry.r_top;
                  r_via_c = entry.via <> None;
                  r_class = Mono;
                }
              in
              acc := { partial with r_class = classify partial } :: !acc;
              incr n
          | _ -> ())
        f.F.Ir.body;
      Hashtbl.replace sites fname (Array.of_list (List.rev !acc)))
    cfg.Cfg.reach_order;
  { cfg; ctx; sites }

let boundary t fname label =
  let e = entry_of t.ctx fname label in
  (e.r_top, e.via)

let sites_of t fname =
  match Hashtbl.find_opt t.sites fname with Some a -> a | None -> [||]

(* Program order, compile order within a function: the deterministic
   iteration every report and check uses. *)
let all_sites t =
  List.concat_map
    (fun fname -> Array.to_list (sites_of t fname))
    t.cfg.Cfg.fn_names

let census t =
  List.fold_left
    (fun (m, p, g) s ->
      match s.r_class with
      | Mono -> (m + 1, p, g)
      | Poly -> (m, p + 1, g)
      | Mega -> (m, p, g + 1))
    (0, 0, 0) (all_sites t)

let site_to_string t s =
  let cands =
    IS.fold
      (fun i acc ->
        let sp = t.cfg.Cfg.specs.(i) in
        Printf.sprintf "spec#%d in %s" i sp.Cfg.sp_in :: acc)
      s.r_cands []
  in
  Printf.sprintf "%s#%d perform %s: %s {%s}%s%s" s.r_fn s.r_idx s.r_label
    (klass_to_string s.r_class)
    (String.concat ", " (List.rev cands))
    (if s.r_top then " +toplevel" else "")
    (if s.r_via_c then " +via-c" else "")

let report t =
  let b = Buffer.create 256 in
  let mono, poly, mega = census t in
  Buffer.add_string b
    (Printf.sprintf "handler resolution: mono=%d poly=%d mega=%d\n" mono poly
       mega);
  List.iter
    (fun s ->
      Buffer.add_string b ("  " ^ site_to_string t s);
      let path = Cfg.path_to t.cfg s.r_fn in
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
            path = Cfg.path_to t.cfg s.r_fn;
            site = s.r_site;
          }
          :: !out)
    (all_sites t);
  Diag.sorted !out

(* ------------------------------------------------------------------ *)
(* Static-to-runtime identity maps.

   Perform sites: the [i]-th site of a function is its [i]-th
   [PerformI] in [entry, code_end) — both sides enumerate in compile
   order.  Handle specs: [HandleI] descriptors are appended to the
   global table after the body-args subtree, functions in program
   order, so an emission-order walk of the IR pairs each [handle_spec]
   record (matched physically against {!Cfg.specs}) with its
   descriptor index. *)

type rt = {
  rt_site_of_pc : (int, site) Hashtbl.t;
  rt_spec_of_handle : int array;  (** handle index -> [sp_id], -1 unknown *)
  rt_handle_of_spec : int array;  (** [sp_id] -> handle index, -1 unknown *)
}

let runtime_map t (c : F.Compile.compiled) =
  let p = t.cfg.Cfg.program in
  let nhandles = Array.length c.F.Compile.handles in
  let spec_of_handle = Array.make nhandles (-1) in
  let handle_of_spec = Array.make (Array.length t.cfg.Cfg.specs) (-1) in
  let next = ref 0 in
  let claim fname (h : F.Ir.handle_spec) =
    let idx = !next in
    incr next;
    match
      List.find_opt
        (fun (s : Cfg.spec) -> s.Cfg.sp == h)
        (Cfg.specs_inside t.cfg fname)
    with
    | Some s ->
        if idx < nhandles then begin
          spec_of_handle.(idx) <- s.Cfg.sp_id;
          handle_of_spec.(s.Cfg.sp_id) <- idx
        end
    | None -> ()
  in
  List.iter
    (fun (f : F.Ir.fn) ->
      Cfg.iter_expr_post
        (function F.Ir.Handle h -> claim f.F.Ir.fn_name h | _ -> ())
        f.F.Ir.body)
    p.F.Ir.fns;
  let site_of_pc = Hashtbl.create 64 in
  Array.iter
    (fun (cf : F.Compile.cfn) ->
      let fsites = sites_of t cf.F.Compile.fn_name in
      let k = ref 0 in
      for pc = cf.F.Compile.entry to cf.F.Compile.code_end - 1 do
        match c.F.Compile.code.(pc) with
        | F.Ir.PerformI eid ->
            if !k < Array.length fsites then begin
              let s = fsites.(!k) in
              (* the mapping is only trusted when the labels agree *)
              if
                Hashtbl.find_opt c.F.Compile.eff_ids s.r_label = Some eid
              then Hashtbl.replace site_of_pc pc s
            end;
            incr k
        | _ -> ()
      done)
    c.F.Compile.fns;
  {
    rt_site_of_pc = site_of_pc;
    rt_spec_of_handle = spec_of_handle;
    rt_handle_of_spec = handle_of_spec;
  }
