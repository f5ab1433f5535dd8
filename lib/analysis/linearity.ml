module F = Retrofit_fiber

type range = { lo : int; hi : int }

type resume_kind = Rcontinue | Rdiscontinue of int

type site = {
  s_fn : int;
  s_idx : int;
  s_kind : resume_kind;
  mutable s_specs : Bits.t;
  mutable s_may_second : bool;
}

type t = {
  sites : site array array;
  escaped : Bits.t;
  resumes : range array array;
      (* spec → fn → resume count of one continuation of that spec
         during a single invocation of the function; [||] for an
         escaped spec *)
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
  let sites = Array.make (Array.length cfg.Cfg.fns) [||] in
  Array.iter
    (fun f ->
      let acc = ref [] and n = ref 0 in
      Cfg.iter_expr
        (fun e ->
          let add kind =
            acc :=
              {
                s_fn = f;
                s_idx = !n;
                s_kind = kind;
                s_specs = Bits.empty;
                s_may_second = false;
              }
              :: !acc;
            incr n
          in
          match e with
          | F.Ir.Continue _ -> add Rcontinue
          | F.Ir.Discontinue (_, l, _) -> add (Rdiscontinue (Cfg.exn_id cfg l))
          | _ -> ())
        cfg.Cfg.fns.(f).F.Ir.body;
      sites.(f) <- Array.of_list (List.rev !acc))
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
   number of times".  A variable is keyed by its name within its
   function: [vars.(f)] lists the names, parameters first. *)

type taint_state = {
  vars : string array array;
  var_t : Bits.t array array;  (* fn → variable → specs *)
  ret_t : Bits.t array;
  mutable esc_t : Bits.t;
  mutable changed : bool;
}

let var_names (f : F.Ir.fn) =
  let names = ref (List.rev f.F.Ir.params) in
  let add x = if not (List.mem x !names) then names := x :: !names in
  Cfg.iter_expr
    (function
      | F.Ir.Let (x, _, _) -> add x
      | F.Ir.Trywith (_, cases) -> List.iter (fun (_, x, _) -> add x) cases
      | _ -> ())
    f.F.Ir.body;
  Array.of_list (List.rev !names)

let var st f x = Cfg.index_of st.vars.(f) x

let grow st (a : Bits.t array) i s =
  if not (Bits.subset s a.(i)) then begin
    a.(i) <- Bits.union a.(i) s;
    st.changed <- true
  end

let degrade st s =
  if not (Bits.subset s st.esc_t) then begin
    st.esc_t <- Bits.union st.esc_t s;
    st.changed <- true
  end

let add_param st (cfg : Cfg.t) g i s =
  match List.nth_opt cfg.Cfg.fns.(g).F.Ir.params i with
  | Some x -> grow st st.var_t.(g) (var st g x) s
  | None -> ()

let rets st gs =
  List.fold_left (fun acc g -> Bits.union acc st.ret_t.(g)) Bits.empty gs

(* The value a resume evaluates to is what the resumed computation's
   handler chain returns; likewise for a [Handle] expression. *)
let chain_ret st (cfg : Cfg.t) kk =
  Bits.fold
    (fun i acc -> Bits.union acc (rets st cfg.Cfg.specs.(i).Cfg.sp_cases))
    kk Bits.empty

let taint_fixpoint (cfg : Cfg.t) sites =
  let vars = Array.map var_names cfg.Cfg.fns in
  let st =
    {
      vars;
      var_t = Array.map (fun v -> Array.make (Array.length v) Bits.empty) vars;
      ret_t = Array.make (Array.length vars) Bits.empty;
      esc_t = Bits.empty;
      changed = false;
    }
  in
  Cfg.fixpoint (fun () ->
    st.changed <- false;
    (* machine-side seeds; a handler installed in unreachable code
       never captures, and unreachable functions never run, so the
       whole pass — like every fixpoint in this library — only walks
       the reachable part of the call graph *)
    Array.iter
      (fun (s : Cfg.spec) ->
        if cfg.Cfg.reachable.(s.Cfg.sp_in) then begin
          let d = cfg.Cfg.compiled.F.Compile.handles.(s.Cfg.sp_id) in
          List.iter
            (fun (_, g) -> add_param st cfg g 1 (Bits.singleton s.Cfg.sp_id))
            d.F.Compile.h_effcs;
          add_param st cfg d.F.Compile.h_retc 0 st.ret_t.(s.Cfg.sp_body)
        end)
      cfg.Cfg.specs;
    Array.iter
      (fun f ->
        let fsites = sites.(f) in
        let n = ref 0 in
        let rec ev (e : F.Ir.expr) : Bits.t =
          match e with
          | F.Ir.Int _ -> Bits.empty
          | F.Ir.Var x -> st.var_t.(f).(var st f x)
          | F.Ir.Binop (_, a, b) ->
              degrade st (ev a);
              degrade st (ev b);
              Bits.empty
          | F.Ir.If (c, t, e) ->
              (* left-to-right with explicit sequencing: the site
                 counter must claim indices in enumeration order *)
              degrade st (ev c);
              let tt = ev t in
              let ee = ev e in
              Bits.union tt ee
          | F.Ir.Let (x, a, b) ->
              grow st st.var_t.(f) (var st f x) (ev a);
              ev b
          | F.Ir.Seq (a, b) ->
              ignore (ev a);
              ev b
          | F.Ir.Call (g, args) ->
              let g = Cfg.fn_id cfg g in
              List.iteri (fun i a -> add_param st cfg g i (ev a)) args;
              st.ret_t.(g)
          | F.Ir.Raise (_, e) | F.Ir.Perform (_, e) ->
              degrade st (ev e);
              Bits.empty
          | F.Ir.Trywith (b, cases) ->
              List.fold_left
                (fun acc (_, _, ce) -> Bits.union acc (ev ce))
                (ev b) cases
          | F.Ir.Handle h ->
              let s = Cfg.spec_of cfg f h in
              List.iteri
                (fun i a -> add_param st cfg s.Cfg.sp_body i (ev a))
                h.F.Ir.body_args;
              rets st s.Cfg.sp_cases
          | F.Ir.Continue (k, v) | F.Ir.Discontinue (k, _, v) ->
              let idx = !n in
              incr n;
              let kk = ev k in
              degrade st (ev v);
              fsites.(idx).s_specs <- Bits.union fsites.(idx).s_specs kk;
              chain_ret st cfg kk
          | F.Ir.Extcall (_, args) ->
              List.iter (fun a -> degrade st (ev a)) args;
              Bits.empty
          | F.Ir.Repeat (c, b) ->
              degrade st (ev c);
              ignore (ev b);
              Bits.empty
        in
        grow st st.ret_t f (ev cfg.Cfg.fns.(f).F.Ir.body))
      cfg.Cfg.reach_order;
    st.changed);
  st

(* Side-effect-free mirror of [ev]'s result, used to ask whether an
   argument expression may carry a given taint. *)
let rec taints_of st (cfg : Cfg.t) f (e : F.Ir.expr) : Bits.t =
  match e with
  | F.Ir.Int _ | F.Ir.Binop _ | F.Ir.Raise _ | F.Ir.Perform _ | F.Ir.Extcall _
  | F.Ir.Repeat _ ->
      Bits.empty
  | F.Ir.Var x -> st.var_t.(f).(var st f x)
  | F.Ir.If (_, t, e) -> Bits.union (taints_of st cfg f t) (taints_of st cfg f e)
  | F.Ir.Let (_, _, b) | F.Ir.Seq (_, b) -> taints_of st cfg f b
  | F.Ir.Call (g, _) -> st.ret_t.(Cfg.fn_id cfg g)
  | F.Ir.Trywith (b, cases) ->
      List.fold_left
        (fun acc (_, _, ce) -> Bits.union acc (taints_of st cfg f ce))
        (taints_of st cfg f b) cases
  | F.Ir.Handle h -> rets st (Cfg.spec_of cfg f h).Cfg.sp_cases
  | F.Ir.Continue (k, _) | F.Ir.Discontinue (k, _, _) ->
      chain_ret st cfg (taints_of st cfg f k)

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
  let nf = Array.length cfg.Cfg.fns in
  let r = Array.make nf rzero and entered = Array.make nf false in
  let carries f e = Bits.mem sp_id (taints_of st cfg f e) in
  (* the taint fixpoint has already converged, so whether a call-site
     argument carries this spec is a constant of the counting loop:
     resolve it once per site, indexed in pre-order claim-at-entry
     position like the resume sites *)
  let arg_carries = Array.make nf [||] in
  Array.iter
    (fun f ->
      let flags = ref [] in
      Cfg.iter_expr
        (fun e ->
          match e with
          | F.Ir.Call (_, args) -> flags := List.exists (carries f) args :: !flags
          | F.Ir.Handle h ->
              flags := List.exists (carries f) h.F.Ir.body_args :: !flags
          | _ -> ())
        cfg.Cfg.fns.(f).F.Ir.body;
      arg_carries.(f) <- Array.of_list (List.rev !flags))
    cfg.Cfg.reach_order;
  Cfg.fixpoint (fun () ->
    let changed = ref false in
    Array.iter
      (fun f ->
        let fsites = sites.(f) in
        let fcarries = arg_carries.(f) in
        let n = ref 0 in
        let cn = ref 0 in
        let enter g pre =
          if (pre.hi >= 1 || entered.(f)) && not entered.(g) then begin
            entered.(g) <- true;
            changed := true
          end
        in
        let flow g ci pre =
          if fcarries.(ci) then begin
            enter g pre;
            radd pre r.(g)
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
              flow (Cfg.fn_id cfg g) ci p
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
              flow (Cfg.spec_of cfg f h).Cfg.sp_body ci p
          | F.Ir.Continue (k, v) | F.Ir.Discontinue (k, _, v) ->
              let idx = !n in
              incr n;
              let p = w (w pre k) v in
              let site = fsites.(idx) in
              if Bits.mem sp_id site.s_specs then begin
                if (p.hi >= 1 || entered.(f)) && not site.s_may_second
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
                      && Bits.mem sp_id site.s_specs
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
        let rf = w rzero cfg.Cfg.fns.(f).F.Ir.body in
        let old = r.(f) in
        let merged = { lo = max old.lo rf.lo; hi = max old.hi rf.hi } in
        if merged <> old then begin
          r.(f) <- merged;
          changed := true
        end)
      cfg.Cfg.reach_order;
    !changed);
  r

let analyze (cfg : Cfg.t) =
  let sites = enumerate_sites cfg in
  let st = taint_fixpoint cfg sites in
  let resumes =
    Array.map
      (fun (s : Cfg.spec) ->
        if Bits.mem s.Cfg.sp_id st.esc_t then [||]
        else count_spec cfg st sites s.Cfg.sp_id)
      cfg.Cfg.specs
  in
  { sites; escaped = st.esc_t; resumes }

let is_escaped t sp_id = Bits.mem sp_id t.escaped

let resumes_in t ~spec ~fn =
  if is_escaped t spec then { lo = 0; hi = 2 } else t.resumes.(spec).(fn)

(* Effective spec set at a site: the tracked taints plus, if any spec
   escaped tracking, every escaped spec — an untracked continuation
   could reach any resume site. *)
let site_specs t site = Bits.union site.s_specs t.escaped

let site_may_second t site = site.s_may_second || not (Bits.is_empty t.escaped)
