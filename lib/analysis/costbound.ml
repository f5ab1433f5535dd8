module F = Retrofit_fiber
module Counter = Retrofit_util.Counter

(* ------------------------------------------------------------------ *)
(* The ∞-aware bound domain.  Arithmetic saturates well below the OCaml
   int range so products of large trip counts cannot wrap. *)

type bound = Fin of int | Inf

let sat = 1_000_000_000_000

let fin n = if n > sat then Inf else Fin n

let badd a b =
  match (a, b) with Inf, _ | _, Inf -> Inf | Fin x, Fin y -> fin (x + y)

let bmul a b =
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Inf, _ | _, Inf -> Inf
  | Fin x, Fin y -> if x > sat / y then Inf else fin (x * y)

let ble a b =
  match (a, b) with
  | _, Inf -> true
  | Inf, Fin _ -> false
  | Fin x, Fin y -> x <= y

let bound_to_string = function Fin n -> string_of_int n | Inf -> "inf"

let finite = function Fin n -> Some n | Inf -> None

(* ------------------------------------------------------------------ *)
(* Per-function abstract summary over compiled code: how many times per
   invocation each cost-bearing instruction can execute.  The only
   backward branch the compiler emits is the [Repeat] latch; its exact
   shape (count; Store s; top: Load s; JumpIfNot exit; body; Pop;
   Load s; Const 1; Sub; Store s; Jump top) is recognised here the way
   {!Redzone} re-derives frame words — a constant count [n] multiplies
   the loop span by [n + 1] (header executes once more than the body),
   anything else widens the span to ∞.  Nested loops multiply. *)

let multipliers (c : F.Compile.compiled) (cf : F.Compile.cfn) =
  let entry = cf.F.Compile.entry and code_end = cf.F.Compile.code_end in
  let code = c.F.Compile.code in
  let mult = Array.make (max (code_end - entry) 1) (Fin 1) in
  for pc = entry to code_end - 1 do
    match code.(pc) with
    | F.Ir.Jump t when t < pc ->
        let factor =
          if t >= entry + 2 && pc >= t + 7 then
            match
              ( code.(t),
                code.(t + 1),
                code.(pc - 5),
                code.(pc - 4),
                code.(pc - 3),
                code.(pc - 2),
                code.(pc - 1) )
            with
            | ( F.Ir.Load s,
                F.Ir.JumpIfNot x,
                F.Ir.Pop,
                F.Ir.Load s3,
                F.Ir.Const 1,
                F.Ir.Bin F.Ir.Sub,
                F.Ir.Store s2 )
              when x = pc + 1 && s2 = s && s3 = s ->
                let clean = ref true in
                for q = t + 2 to pc - 6 do
                  match code.(q) with
                  | F.Ir.Store s' when s' = s -> clean := false
                  | _ -> ()
                done;
                if not !clean then Inf
                else begin
                  match (code.(t - 2), code.(t - 1)) with
                  | F.Ir.Const n, F.Ir.Store s' when s' = s -> fin (max n 0 + 1)
                  | _ -> Inf
                end
            | _ -> Inf
          else Inf
        in
        for q = t to pc do
          mult.(q - entry) <- bmul mult.(q - entry) factor
        done
    | _ -> ()
  done;
  mult

type fsum = {
  fs_perform : bound;
  fs_handle : bound;
  fs_resume : bound;
  fs_calls : (int * bound) list;  (** callee function index, multiplier *)
  fs_handles : (int * bound) list;  (** handle-descriptor index, multiplier *)
  fs_callbacks : (int * bound) list;  (** callback target index, multiplier *)
  fs_opaque : bound;  (** multiplier mass of opaque external calls *)
}

let summarize (c : F.Compile.compiled) cfun_model (cf : F.Compile.cfn) =
  let mult = multipliers c cf in
  let entry = cf.F.Compile.entry in
  let perform = ref (Fin 0)
  and handle = ref (Fin 0)
  and resume = ref (Fin 0)
  and opaque = ref (Fin 0)
  and calls = ref []
  and handles = ref []
  and callbacks = ref [] in
  for pc = entry to cf.F.Compile.code_end - 1 do
    let m = mult.(pc - entry) in
    match c.F.Compile.code.(pc) with
    | F.Ir.PerformI _ -> perform := badd !perform m
    | F.Ir.HandleI h ->
        handle := badd !handle m;
        handles := (h, m) :: !handles
    | F.Ir.ContinueI | F.Ir.DiscontinueI _ -> resume := badd !resume m
    | F.Ir.CallI fid -> calls := (fid, m) :: !calls
    | F.Ir.ExtcallI (cid, _) -> (
        match cfun_model.(cid) with
        | Cfg.Pure -> ()
        | Cfg.Calls_back g -> (
            match Hashtbl.find_opt c.F.Compile.fn_ids g with
            | Some fid -> callbacks := (fid, m) :: !callbacks
            | None -> opaque := badd !opaque m)
        | Cfg.Opaque -> opaque := badd !opaque m)
    | _ -> ()
  done;
  {
    fs_perform = !perform;
    fs_handle = !handle;
    fs_resume = !resume;
    fs_calls = !calls;
    fs_handles = !handles;
    fs_callbacks = !callbacks;
    fs_opaque = !opaque;
  }

(* ------------------------------------------------------------------ *)
(* Invocation bounds: a widened interprocedural fixpoint.

   inv(g) bounds how many times g is invoked through [emulate_call]:
   once for main, plus call/callback/handler-body/return-clause/
   exception-clause edges weighted by the caller's invocation bound and
   the site's loop multiplier.  An effect clause can be invoked once
   per dispatched perform, so each reachable installation's effect
   clauses absorb the running whole-program perform total — folded into
   the same fixpoint.  Widening keeps it terminating and sound: a
   bound that increases after its first finite value jumps straight to
   ∞ (the classic 0 → k → ∞ ascent), so the loop stops at a genuine
   post-fixpoint.  One reachable opaque external call makes every
   invocation bound ∞ — the model's [Opaque] may re-enter anything,
   any number of times.  [Calls_back] is modeled as at most one
   callback per external call execution, the contract the conformance
   harness's [cb_*] stubs implement. *)

type t = {
  compiled : F.Compile.compiled;
  sums : fsum array;
  inv : bound array;
  opaque_in : string option;  (** function with a live opaque extcall *)
}

let perform_total sums inv =
  let p = ref (Fin 0) in
  Array.iteri (fun i s -> p := badd !p (bmul inv.(i) s.fs_perform)) sums;
  !p

let analyze ~cfun_model (c : F.Compile.compiled) =
  let nf = Array.length c.F.Compile.fns in
  let sums = Array.map (summarize c cfun_model) c.F.Compile.fns in
  let inv = Array.make nf (Fin 0) in
  let opaque_in = ref None in
  let widen old nw =
    if ble nw old then old
    else match old with Fin 0 -> nw | Fin _ | Inf -> Inf
  in
  (* Widening moves each bound at most twice, so this converges within
     [2 * nf + 1] rounds. *)
  Cfg.fixpoint (fun () ->
    let p = perform_total sums inv in
    let acc =
      Array.init nf (fun i ->
          if i = c.F.Compile.main_index then Fin 1 else Fin 0)
    in
    let add g b = acc.(g) <- badd acc.(g) b in
    Array.iteri
      (fun i s ->
        if inv.(i) <> Fin 0 then begin
          List.iter (fun (g, m) -> add g (bmul inv.(i) m)) s.fs_calls;
          List.iter (fun (g, m) -> add g (bmul inv.(i) m)) s.fs_callbacks;
          List.iter
            (fun (h, m) ->
              let w = bmul inv.(i) m in
              let hd = c.F.Compile.handles.(h) in
              add hd.F.Compile.h_body w;
              add hd.F.Compile.h_retc w;
              List.iter (fun (_, fid) -> add fid w) hd.F.Compile.h_exncs;
              if w <> Fin 0 then
                List.iter (fun (_, fid) -> add fid p) hd.F.Compile.h_effcs)
            s.fs_handles;
          if bmul inv.(i) s.fs_opaque <> Fin 0 && !opaque_in = None then
            opaque_in := Some c.F.Compile.fns.(i).F.Compile.fn_name
        end)
      sums;
    if !opaque_in <> None then Array.fill acc 0 nf Inf;
    let changed = ref false in
    Array.iteri
      (fun g old ->
        let nw = widen old acc.(g) in
        if nw <> old then begin
          inv.(g) <- nw;
          changed := true
        end)
      inv;
    !changed);
  { compiled = c; sums; inv; opaque_in = !opaque_in }

let inv t name =
  match Hashtbl.find_opt t.compiled.F.Compile.fn_ids name with
  | Some i -> t.inv.(i)
  | None -> Fin 0

type totals = {
  t_performs : bound;
  t_handles : bound;
  t_resumes : bound;
  t_calls : bound;
}

let totals t =
  let p = ref (Fin 0) and h = ref (Fin 0) and r = ref (Fin 0) in
  let c = ref (Fin 0) in
  Array.iteri
    (fun i s ->
      p := badd !p (bmul t.inv.(i) s.fs_perform);
      h := badd !h (bmul t.inv.(i) s.fs_handle);
      r := badd !r (bmul t.inv.(i) s.fs_resume);
      c := badd !c t.inv.(i))
    t.sums;
  { t_performs = !p; t_handles = !h; t_resumes = !r; t_calls = !c }

(* ------------------------------------------------------------------ *)
(* Counter bounds, per stack policy.

   One-shot discipline makes per-invocation accounting sound: a
   perform suspends the frame and at most one resume continues that
   same execution.  Under multishot, a second resume re-runs a cloned
   suffix, so once [R >= 2] is possible (and a continuation exists at
   all) every bound collapses to ∞; [R <= 1] is one-shot-equivalent
   except for the cloning counters themselves. *)

let counter_bounds t ~(policy : F.Stack_policy.t) ~multishot ~red_zone =
  let { t_performs = p; t_handles = h; t_resumes = r; t_calls = c } =
    totals t
  in
  let zero = Fin 0 in
  (* multishot cloning can add up to R copied chains of at most
     1 + H fibers each to the live-handler population *)
  let clones = if multishot then bmul r (badd (Fin 1) h) else zero in
  let live_handlers = badd h clones in
  let k =
    let ext = F.Stack_policy.ext_words policy in
    if ext = 0 then zero
    else begin
      let fmax =
        Array.fold_left
          (fun m (cf : F.Compile.cfn) -> max m cf.F.Compile.frame_words)
          0 t.compiled.F.Compile.fns
      in
      Fin (((fmax + red_zone + ext - 1) / ext) + 1)
    end
  in
  let commits =
    bmul (bmul c k) (badd (Fin 1) (if multishot then r else zero))
  in
  (* a policy's own growth/check counters; the others stay at zero *)
  let under pk b = if policy.F.Stack_policy.pk = pk then b else zero in
  let bounds =
    [
      (Counter.Perform, p);
      (Counter.Reperform, bmul p live_handlers);
      (Counter.Eff_tbl_probe, bmul p live_handlers);
      (Counter.Handle, h);
      (Counter.Fiber_alloc, h);
      (Counter.Resume, r);
      (Counter.Cont_copy, if multishot then r else zero);
      (Counter.Call, c);
      (* per perform, resume and handle one switch; every created
         fiber (installations plus clones) is exited at most once,
         by return or by an exception crossing its boundary *)
      (Counter.Switch, badd (badd p r) (badd (bmul (Fin 2) h) clones));
      (Counter.Overflow_check, under F.Stack_policy.Copy_double c);
      (Counter.Check_elided, under F.Stack_policy.Copy_double c);
      (Counter.Stack_grow, under F.Stack_policy.Copy_double c);
      (Counter.Segment_check, under F.Stack_policy.Segmented c);
      (Counter.Chunk_commit, under F.Stack_policy.Segmented commits);
      ( Counter.Cont_share,
        if policy.F.Stack_policy.cow_clone && multishot then
          under F.Stack_policy.Segmented (bmul r (badd (Fin 1) h))
        else zero );
      (Counter.Page_fault, under F.Stack_policy.Large_reserve c);
      (Counter.Page_commit, under F.Stack_policy.Large_reserve commits);
    ]
  in
  if multishot && ble (Fin 2) r && ble (Fin 1) p then
    List.map (fun (n, _) -> (n, Inf)) bounds
  else bounds

(* ------------------------------------------------------------------ *)
(* Reporting and diagnostics. *)

let fn_line t i =
  let cf = t.compiled.F.Compile.fns.(i) in
  let s = t.sums.(i) in
  let per_inv_calls =
    List.fold_left (fun acc (_, m) -> badd acc m) (Fin 0) s.fs_calls
  in
  Printf.sprintf "  %s: inv<=%s performs/inv<=%s handles/inv<=%s \
                  resumes/inv<=%s calls/inv<=%s"
    cf.F.Compile.fn_name
    (bound_to_string t.inv.(i))
    (bound_to_string s.fs_perform)
    (bound_to_string s.fs_handle)
    (bound_to_string s.fs_resume)
    (bound_to_string per_inv_calls)

let report ?(multishot = false) ?(red_zone = 16) t =
  let b = Buffer.create 256 in
  let { t_performs; t_handles; t_resumes; t_calls } = totals t in
  Buffer.add_string b
    (Printf.sprintf
       "cost bounds%s: performs<=%s handles<=%s resumes<=%s calls<=%s\n"
       (if multishot then " (multishot)" else "")
       (bound_to_string t_performs)
       (bound_to_string t_handles)
       (bound_to_string t_resumes)
       (bound_to_string t_calls));
  Array.iteri (fun i _ -> Buffer.add_string b (fn_line t i ^ "\n")) t.sums;
  List.iter
    (fun (pname, policy) ->
      let bounds = counter_bounds t ~policy ~multishot ~red_zone in
      let interesting =
        List.filter (fun (_, bd) -> bd <> Fin 0) bounds
      in
      Buffer.add_string b
        (Printf.sprintf "  [%s] %s\n" pname
           (String.concat " "
              (List.map
                 (fun (n, bd) ->
                   Printf.sprintf "%s<=%s" (Counter.to_string n) (bound_to_string bd))
                 interesting))))
    F.Stack_policy.all;
  Buffer.contents b

let diagnostics t =
  let cause =
    match t.opaque_in with
    | Some f -> Printf.sprintf "opaque external call reachable in %s" f
    | None -> (
        (* the first function whose invocation bound widened to ∞ in
           program order, else the first with an ∞ per-invocation count
           (a non-constant loop) *)
        let named = ref None in
        Array.iteri
          (fun i b ->
            if !named = None && b = Inf then
              named := Some t.compiled.F.Compile.fns.(i).F.Compile.fn_name)
          t.inv;
        match !named with
        | Some f ->
            Printf.sprintf
              "unbounded invocations of %s (recursion or unbounded handler \
               episodes)"
              f
        | None ->
            let loopy = ref "main" in
            Array.iteri
              (fun i s ->
                if
                  !loopy = "main"
                  && (s.fs_perform = Inf || s.fs_handle = Inf
                    || s.fs_resume = Inf
                    || List.exists (fun (_, m) -> m = Inf) s.fs_calls)
                then loopy := t.compiled.F.Compile.fns.(i).F.Compile.fn_name)
              t.sums;
            Printf.sprintf "non-constant loop count in %s" !loopy)
  in
  let { t_performs; t_handles; t_resumes; t_calls } = totals t in
  let main_name =
    t.compiled.F.Compile.fns.(t.compiled.F.Compile.main_index)
      .F.Compile.fn_name
  in
  let mk counter =
    {
      Diag.kind = Diag.Unbounded_cost { counter; cause };
      verdict = Diag.May;
      fn = main_name;
      path = [];
      site = "";
    }
  in
  let out = ref [] in
  if t_calls = Inf then out := mk "call" :: !out;
  if t_performs = Inf then out := mk "perform" :: !out;
  if t_handles = Inf then out := mk "handle" :: !out;
  if t_resumes = Inf then out := mk "resume" :: !out;
  Diag.sorted !out
