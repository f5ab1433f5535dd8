module F = Retrofit_fiber
module IS = Set.Make (Int)

type range = { lo : int; hi : int }

type resume_kind = Rcontinue | Rdiscontinue of string

type site = {
  s_fn : string;
  s_idx : int;
  s_kind : resume_kind;
  mutable s_specs : IS.t;
  mutable s_may_second : bool;
}

type t = {
  cfg : Cfg.t;
  sites : (string, site array) Hashtbl.t;
  escaped : IS.t;
  resumes : (int, (string, range) Hashtbl.t) Hashtbl.t;
      (* spec → fn → resume count of one continuation of that spec
         during a single invocation of the function *)
}

let sat n = if n > 2 then 2 else if n < 0 then 0 else n

let radd a b = { lo = sat (a.lo + b.lo); hi = sat (a.hi + b.hi) }

let rhull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let rzero = { lo = 0; hi = 0 }

let rone = { lo = 1; hi = 1 }

(* ------------------------------------------------------------------ *)
(* Resume-site enumeration.  Sites are numbered by the pre-order
   traversal position of their [Continue]/[Discontinue] node — claimed
   on node entry, before descending into subterms — and every other
   walk in this module and in {!Effects} claims indices in the same
   order, so a site index is a stable cross-analysis key. *)

let enumerate_sites (cfg : Cfg.t) =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (f : F.Ir.fn) ->
      let acc = ref [] and n = ref 0 in
      Cfg.iter_expr
        (fun e ->
          let add kind =
            acc :=
              {
                s_fn = f.F.Ir.fn_name;
                s_idx = !n;
                s_kind = kind;
                s_specs = IS.empty;
                s_may_second = false;
              }
              :: !acc;
            incr n
          in
          match e with
          | F.Ir.Continue _ -> add Rcontinue
          | F.Ir.Discontinue (_, l, _) -> add (Rdiscontinue l)
          | _ -> ())
        f.F.Ir.body;
      Hashtbl.replace sites f.F.Ir.fn_name (Array.of_list (List.rev !acc)))
    cfg.Cfg.reach_order;
  sites

(* ------------------------------------------------------------------ *)
(* Continuation-taint analysis.  Each handler installation is one taint
   source: the machine passes the captured continuation as the second
   argument of the spec's effect-case functions.  Taints flow through
   lets, calls, handle body arguments and the value positions that can
   carry them; a continuation reaching a position we cannot track
   (arithmetic, payloads, external calls) degrades its spec to
   [escaped], which the clients treat as "may be resumed anywhere, any
   number of times". *)

type taint_state = {
  var_t : (string * string, IS.t) Hashtbl.t;  (* (fn, var) → specs *)
  ret_t : (string, IS.t) Hashtbl.t;
  mutable esc_t : IS.t;
  mutable changed : bool;
}

let get_tbl tbl key =
  match Hashtbl.find_opt tbl key with Some s -> s | None -> IS.empty

let add_tbl st tbl key s =
  if not (IS.is_empty s) then begin
    let old = get_tbl tbl key in
    let merged = IS.union old s in
    if not (IS.equal old merged) then begin
      Hashtbl.replace tbl key merged;
      st.changed <- true
    end
  end

let degrade st s =
  if not (IS.subset s st.esc_t) then begin
    st.esc_t <- IS.union st.esc_t s;
    st.changed <- true
  end

let param_name (cfg : Cfg.t) g i =
  match Hashtbl.find_opt cfg.Cfg.fn_tbl g with
  | Some f -> List.nth_opt f.F.Ir.params i
  | None -> None

let add_param st cfg g i s =
  match param_name cfg g i with
  | Some x -> add_tbl st st.var_t (g, x) s
  | None -> ()

let taint_fixpoint (cfg : Cfg.t) sites =
  let st =
    {
      var_t = Hashtbl.create 64;
      ret_t = Hashtbl.create 16;
      esc_t = IS.empty;
      changed = true;
    }
  in
  (* The value a resume evaluates to is what the resumed computation's
     handler chain returns; likewise for a [Handle] expression. *)
  let chain_ret kk =
    IS.fold
      (fun i acc ->
        List.fold_left
          (fun acc g -> IS.union acc (get_tbl st.ret_t g))
          acc
          (Cfg.case_fns cfg.Cfg.specs.(i).Cfg.sp))
      kk IS.empty
  in
  let rounds = ref 0 in
  while st.changed && !rounds < 1000 do
    st.changed <- false;
    incr rounds;
    (* machine-side seeds; a handler installed in unreachable code
       never captures, and unreachable functions never run, so the
       whole pass — like every fixpoint in this library — only walks
       the reachable part of the call graph *)
    Array.iter
      (fun (s : Cfg.spec) ->
        if Cfg.is_reachable cfg s.Cfg.sp_in then begin
          List.iter
            (fun (_, g) -> add_param st cfg g 1 (IS.singleton s.Cfg.sp_id))
            s.Cfg.sp.F.Ir.effcs;
          add_param st cfg s.Cfg.sp.F.Ir.retc 0
            (get_tbl st.ret_t s.Cfg.sp.F.Ir.body_fn)
        end)
      cfg.Cfg.specs;
    List.iter
      (fun (f : F.Ir.fn) ->
        let fname = f.F.Ir.fn_name in
        let fsites = Hashtbl.find sites fname in
        let n = ref 0 in
        let rec ev (e : F.Ir.expr) : IS.t =
          match e with
          | F.Ir.Int _ -> IS.empty
          | F.Ir.Var x -> get_tbl st.var_t (fname, x)
          | F.Ir.Binop (_, a, b) ->
              degrade st (ev a);
              degrade st (ev b);
              IS.empty
          | F.Ir.If (c, t, e) ->
              (* left-to-right with explicit sequencing: the site
                 counter must claim indices in enumeration order *)
              degrade st (ev c);
              let tt = ev t in
              let ee = ev e in
              IS.union tt ee
          | F.Ir.Let (x, a, b) ->
              add_tbl st st.var_t (fname, x) (ev a);
              ev b
          | F.Ir.Seq (a, b) ->
              ignore (ev a);
              ev b
          | F.Ir.Call (g, args) ->
              List.iteri (fun i a -> add_param st cfg g i (ev a)) args;
              get_tbl st.ret_t g
          | F.Ir.Raise (_, e) | F.Ir.Perform (_, e) ->
              degrade st (ev e);
              IS.empty
          | F.Ir.Trywith (b, cases) ->
              List.fold_left
                (fun acc (_, _, ce) -> IS.union acc (ev ce))
                (ev b) cases
          | F.Ir.Handle h ->
              List.iteri
                (fun i a -> add_param st cfg h.F.Ir.body_fn i (ev a))
                h.F.Ir.body_args;
              List.fold_left
                (fun acc g -> IS.union acc (get_tbl st.ret_t g))
                IS.empty (Cfg.case_fns h)
          | F.Ir.Continue (k, v) ->
              let idx = !n in
              incr n;
              let kk = ev k in
              degrade st (ev v);
              fsites.(idx).s_specs <- IS.union fsites.(idx).s_specs kk;
              chain_ret kk
          | F.Ir.Discontinue (k, _, v) ->
              let idx = !n in
              incr n;
              let kk = ev k in
              degrade st (ev v);
              fsites.(idx).s_specs <- IS.union fsites.(idx).s_specs kk;
              chain_ret kk
          | F.Ir.Extcall (_, args) ->
              List.iter (fun a -> degrade st (ev a)) args;
              IS.empty
          | F.Ir.Repeat (c, b) ->
              degrade st (ev c);
              ignore (ev b);
              IS.empty
        in
        add_tbl st st.ret_t fname (ev f.F.Ir.body))
      cfg.Cfg.reach_order
  done;
  st

(* Side-effect-free mirror of [ev]'s result, used to ask whether an
   argument expression may carry a given taint. *)
let rec taints_of st (cfg : Cfg.t) fname (e : F.Ir.expr) : IS.t =
  match e with
  | F.Ir.Int _ | F.Ir.Binop _ | F.Ir.Raise _ | F.Ir.Perform _ | F.Ir.Extcall _
  | F.Ir.Repeat _ ->
      IS.empty
  | F.Ir.Var x -> get_tbl st.var_t (fname, x)
  | F.Ir.If (_, t, e) ->
      IS.union (taints_of st cfg fname t) (taints_of st cfg fname e)
  | F.Ir.Let (_, _, b) | F.Ir.Seq (_, b) -> taints_of st cfg fname b
  | F.Ir.Call (g, _) -> get_tbl st.ret_t g
  | F.Ir.Trywith (b, cases) ->
      List.fold_left
        (fun acc (_, _, ce) -> IS.union acc (taints_of st cfg fname ce))
        (taints_of st cfg fname b)
        cases
  | F.Ir.Handle h ->
      List.fold_left
        (fun acc g -> IS.union acc (get_tbl st.ret_t g))
        IS.empty (Cfg.case_fns h)
  | F.Ir.Continue (k, _) | F.Ir.Discontinue (k, _, _) ->
      let kk = taints_of st cfg fname k in
      IS.fold
        (fun i acc ->
          List.fold_left
            (fun acc g -> IS.union acc (get_tbl st.ret_t g))
            acc
            (Cfg.case_fns cfg.Cfg.specs.(i).Cfg.sp))
        kk IS.empty

(* ------------------------------------------------------------------ *)
(* Per-continuation resume counting for one spec.  [resumes(f)] is the
   saturating (min, max) number of resumes applied to a single captured
   continuation of the spec during one invocation of [f]; the spec's
   own range is [resumes(effc_fn)], since each capture enters the
   analysis as a fresh second argument of an effect-case invocation.
   A site is flagged may-second when the running upper count at its
   program point can already be >= 1 — including re-entry through a
   loop and entry into a callee that was passed a possibly-consumed
   continuation. *)

let count_spec (cfg : Cfg.t) st sites sp_id =
  let r_tbl = Hashtbl.create 16 in
  let entered = Hashtbl.create 16 in
  List.iter
    (fun (f : F.Ir.fn) -> Hashtbl.replace r_tbl f.F.Ir.fn_name rzero)
    cfg.Cfg.reach_order;
  let get_r g =
    match Hashtbl.find_opt r_tbl g with Some r -> r | None -> rzero
  in
  let is_entered g = Hashtbl.mem entered g in
  let changed = ref true in
  let rounds = ref 0 in
  let carries e fname = IS.mem sp_id (taints_of st cfg fname e) in
  (* the taint fixpoint has already converged, so whether a call-site
     argument carries this spec is a constant of the counting loop:
     resolve it once per site, indexed in pre-order claim-at-entry
     position like the resume sites *)
  let arg_carries = Hashtbl.create 16 in
  List.iter
    (fun (f : F.Ir.fn) ->
      let flags = ref [] in
      Cfg.iter_expr
        (fun e ->
          match e with
          | F.Ir.Call (_, args) ->
              flags :=
                List.exists (fun a -> carries a f.F.Ir.fn_name) args :: !flags
          | F.Ir.Handle h ->
              flags :=
                List.exists (fun a -> carries a f.F.Ir.fn_name) h.F.Ir.body_args
                :: !flags
          | _ -> ())
        f.F.Ir.body;
      Hashtbl.replace arg_carries f.F.Ir.fn_name
        (Array.of_list (List.rev !flags)))
    cfg.Cfg.reach_order;
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : F.Ir.fn) ->
        let fname = f.F.Ir.fn_name in
        let fsites = Hashtbl.find sites fname in
        let fcarries = Hashtbl.find arg_carries fname in
        let n = ref 0 in
        let cn = ref 0 in
        let enter g pre =
          if (pre.hi >= 1 || is_entered fname) && not (is_entered g) then begin
            Hashtbl.replace entered g ();
            changed := true
          end
        in
        let flow g ci pre =
          if fcarries.(ci) then begin
            enter g pre;
            radd pre (get_r g)
          end
          else pre
        in
        let rec w pre (e : F.Ir.expr) : range =
          match e with
          | F.Ir.Int _ | F.Ir.Var _ -> pre
          | F.Ir.Binop (_, a, b) | F.Ir.Let (_, a, b) | F.Ir.Seq (a, b) ->
              w (w pre a) b
          | F.Ir.If (c, t, e) ->
              let pc = w pre c in
              let pt = w pc t in
              let pe = w pc e in
              rhull pt pe
          | F.Ir.Call (g, args) ->
              let ci = !cn in
              incr cn;
              let p = List.fold_left w pre args in
              flow g ci p
          | F.Ir.Raise (_, e) | F.Ir.Perform (_, e) ->
              (* control may leave here; falling through overstates the
                 minimum, which the exn-aware refinement in {!Effects}
                 compensates for *)
              w pre e
          | F.Ir.Trywith (b, cases) ->
              let pb = w pre b in
              (* a case body runs after an unknown prefix of the body:
                 at least [pre.lo], at most [pb.hi] resumes happened *)
              let pcase = { lo = pre.lo; hi = pb.hi } in
              List.fold_left
                (fun acc (_, _, ce) -> rhull acc (w pcase ce))
                pb cases
          | F.Ir.Handle h ->
              let ci = !cn in
              incr cn;
              let p = List.fold_left w pre h.F.Ir.body_args in
              (* machine-invoked case functions of [h] can only touch
                 this spec's continuation if it leaks through their
                 parameters, which the taint pass degrades to escaped —
                 so only the body-argument flow counts here *)
              flow h.F.Ir.body_fn ci p
          | F.Ir.Continue (k, v) | F.Ir.Discontinue (k, _, v) ->
              let idx = !n in
              incr n;
              let p = w (w pre k) v in
              let site = fsites.(idx) in
              if IS.mem sp_id site.s_specs then begin
                if (p.hi >= 1 || is_entered fname) && not site.s_may_second
                then begin
                  site.s_may_second <- true;
                  changed := true
                end;
                radd p rone
              end
              else p
          | F.Ir.Extcall (_, args) -> List.fold_left w pre args
          | F.Ir.Repeat (c, b) ->
              let pc = w pre c in
              let c0 = !n in
              let p1 = w pc b in
              let c1 = !n in
              if p1.hi > pc.hi && c <> F.Ir.Int 0 && c <> F.Ir.Int 1 then begin
                (* the body consumes and may run again: every site it
                   contains can see an already-resumed continuation *)
                Array.iter
                  (fun site ->
                    if
                      site.s_idx >= c0 && site.s_idx < c1
                      && IS.mem sp_id site.s_specs
                      && not site.s_may_second
                    then begin
                      site.s_may_second <- true;
                      changed := true
                    end)
                  fsites;
                { lo = pc.lo; hi = 2 }
              end
              else rhull pc p1
        in
        let r = w rzero f.F.Ir.body in
        let old = get_r fname in
        let merged = { lo = max old.lo r.lo; hi = max old.hi r.hi } in
        if merged <> old then begin
          Hashtbl.replace r_tbl fname merged;
          changed := true
        end)
      cfg.Cfg.reach_order
  done;
  r_tbl

let analyze (cfg : Cfg.t) =
  let sites = enumerate_sites cfg in
  let st = taint_fixpoint cfg sites in
  let resumes = Hashtbl.create 8 in
  Array.iter
    (fun (s : Cfg.spec) ->
      if not (IS.mem s.Cfg.sp_id st.esc_t) then
        Hashtbl.replace resumes s.Cfg.sp_id
          (count_spec cfg st sites s.Cfg.sp_id))
    cfg.Cfg.specs;
  { cfg; sites; escaped = st.esc_t; resumes }

let sites_of t fname =
  match Hashtbl.find_opt t.sites fname with
  | Some a -> a
  | None -> [||]

let is_escaped t sp_id = IS.mem sp_id t.escaped

let resumes_in t ~spec ~fn =
  if is_escaped t spec then { lo = 0; hi = 2 }
  else
    match Hashtbl.find_opt t.resumes spec with
    | None -> { lo = 0; hi = 2 }
    | Some tbl -> (
        match Hashtbl.find_opt tbl fn with Some r -> r | None -> rzero)

(* Effective spec set at a site: the tracked taints plus, if any spec
   escaped tracking, every escaped spec — an untracked continuation
   could reach any resume site. *)
let site_specs t site = IS.union site.s_specs t.escaped

let site_may_second t site =
  site.s_may_second || not (IS.is_empty (IS.inter site.s_specs t.escaped))
  || not (IS.is_empty t.escaped)
