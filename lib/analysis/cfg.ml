module F = Retrofit_fiber

type cfun_model = Pure | Calls_back of string | Opaque

type spec = {
  sp_id : int;
  sp_pre : int;
  sp_in : int;
  sp : F.Ir.handle_spec;
  sp_body : int;
  sp_cases : int list;
  sp_effs : Bits.t;
  sp_exns : Bits.t;
}

type t = {
  compiled : F.Compile.compiled;
  fns : F.Ir.fn array;
  specs : spec array;
  cfuns : cfun_model array;
  calls : int list array;
  installs : int list array;
  extcalls : int list array;
  reachable : bool array;
  parent : int array;
  reach_order : int array;
}

exception No_fixpoint

let fixpoint step =
  let rounds = ref 1 in
  while step () do
    if !rounds >= 1000 then raise No_fixpoint;
    incr rounds
  done

let fn_id t name = Hashtbl.find t.compiled.F.Compile.fn_ids name

let eff_id t l = F.Compile.eff_id t.compiled l

let exn_id t l = F.Compile.exn_id t.compiled l

let index_of names name =
  let rec go i = if String.equal names.(i) name then i else go (i + 1) in
  go 0

let cfun_id t name = index_of t.compiled.F.Compile.cfun_names name

let callback t cid =
  match t.cfuns.(cid) with
  | Calls_back g -> (
      match Hashtbl.find_opt t.compiled.F.Compile.fn_ids g with
      | Some i -> i
      | None -> -1)
  | Pure | Opaque -> -1

let spec_of t f (h : F.Ir.handle_spec) =
  t.specs.(List.find (fun i -> t.specs.(i).sp == h) t.installs.(f))

(* The direct sub-expressions of [e], left to right; [walk f] is applied
   to each.  Taking the walker as an argument lets every traversal
   recurse through it without allocating a closure per node. *)
let iter_children walk f (e : F.Ir.expr) =
  match e with
  | F.Ir.Int _ | F.Ir.Var _ -> ()
  | F.Ir.Binop (_, a, b)
  | F.Ir.Let (_, a, b)
  | F.Ir.Seq (a, b)
  | F.Ir.Repeat (a, b)
  | F.Ir.Continue (a, b)
  | F.Ir.Discontinue (a, _, b) ->
      walk f a;
      walk f b
  | F.Ir.If (a, b, c) ->
      walk f a;
      walk f b;
      walk f c
  | F.Ir.Call (_, args) | F.Ir.Extcall (_, args) -> List.iter (walk f) args
  | F.Ir.Raise (_, a) | F.Ir.Perform (_, a) -> walk f a
  | F.Ir.Trywith (body, cases) ->
      walk f body;
      List.iter (fun (_, _, e) -> walk f e) cases
  | F.Ir.Handle h -> List.iter (walk f) h.F.Ir.body_args

let rec iter_expr f e =
  f e;
  iter_children iter_expr f e

let rec iter_expr_post f e =
  iter_children iter_expr_post f e;
  f e

let build ~cfun_model (c : F.Compile.compiled) (program : F.Ir.program) =
  let fns = Array.of_list program.F.Ir.fns in
  let nf = Array.length fns in
  let id name = Hashtbl.find c.F.Compile.fn_ids name in
  let cfuns = Array.map cfun_model c.F.Compile.cfun_names in
  let calls = Array.make nf [] and installs = Array.make nf [] in
  let extcalls = Array.make nf [] in
  (* interprocedural edges out of each function in pre-order, for the
     BFS below; -1 stands for every function (an [Opaque] re-entry) *)
  let succ = Array.make nf [] in
  let specs = ref [] and npre = ref 0 and npost = ref 0 in
  (* One walk per function, in program order: a [Handle] is numbered
     in pre-order on entry (the printed [spec#N]) and in compile order
     on exit — the compiler appends its descriptor after the body-args
     code, so the [i]-th [Handle] exited owns descriptor [i]. *)
  let rec walk f (e : F.Ir.expr) =
    let edge g = succ.(f) <- g :: succ.(f) in
    let pre = !npre in
    (match e with
    | F.Ir.Call (g, _) ->
        edge (id g);
        calls.(f) <- id g :: calls.(f)
    | F.Ir.Handle h ->
        incr npre;
        List.iter
          (fun g -> edge (id g))
          ((h.F.Ir.body_fn :: h.F.Ir.retc :: List.map snd h.F.Ir.exncs)
          @ List.map snd h.F.Ir.effcs)
    | F.Ir.Extcall (name, _) -> (
        let cid = index_of c.F.Compile.cfun_names name in
        extcalls.(f) <- cid :: extcalls.(f);
        match cfuns.(cid) with
        | Pure -> ()
        | Calls_back g ->
            Option.iter edge (Hashtbl.find_opt c.F.Compile.fn_ids g)
        | Opaque -> edge (-1))
    | _ -> ());
    iter_children walk f e;
    match e with
    | F.Ir.Handle h ->
        let d = c.F.Compile.handles.(!npost) in
        specs :=
          {
            sp_id = !npost;
            sp_pre = pre;
            sp_in = f;
            sp = h;
            sp_body = d.F.Compile.h_body;
            sp_cases =
              (d.F.Compile.h_retc :: List.map snd d.F.Compile.h_exncs)
              @ List.map snd d.F.Compile.h_effcs;
            sp_effs = Bits.of_list (List.map fst d.F.Compile.h_effcs);
            sp_exns = Bits.of_list (List.map fst d.F.Compile.h_exncs);
          }
          :: !specs;
        installs.(f) <- !npost :: installs.(f);
        incr npost
    | _ -> ()
  in
  Array.iteri (fun f (fn : F.Ir.fn) -> walk f fn.F.Ir.body) fns;
  (* Reachability from main over all edge kinds; the BFS tree doubles as
     the witness-path provenance for diagnostics, and [order] as the
     queue. *)
  let reachable = Array.make nf false and parent = Array.make nf (-1) in
  let order = Array.make nf 0 and n = ref 0 in
  let visit p g =
    if not reachable.(g) then begin
      reachable.(g) <- true;
      parent.(g) <- p;
      order.(!n) <- g;
      incr n
    end
  in
  visit (-1) c.F.Compile.main_index;
  let i = ref 0 in
  while !i < !n do
    let f = order.(!i) in
    incr i;
    List.iter
      (fun g ->
        if g < 0 then
          for g = 0 to nf - 1 do
            visit f g
          done
        else visit f g)
      (List.rev succ.(f))
  done;
  {
    compiled = c;
    fns;
    specs = Array.of_list (List.rev !specs);
    cfuns;
    calls;
    installs = Array.map List.rev installs;
    extcalls;
    reachable;
    parent;
    reach_order = Array.sub order 0 !n;
  }

let path_to t f =
  let rec up acc g =
    let acc = t.fns.(g).F.Ir.fn_name :: acc in
    if t.parent.(g) < 0 then acc else up acc t.parent.(g)
  in
  if t.reachable.(f) then up [] f else [ t.fns.(f).F.Ir.fn_name ]

(* ------------------------------------------------------------------ *)
(* Instruction-level CFG over compiled code, for the red-zone audit. *)

type edge = Fallthrough | Branch | Trap_handler

let instr_successors ~(code : int -> F.Ir.instr) ~at =
  match code at with
  | F.Ir.Jump a -> [ (a, Branch) ]
  | F.Ir.JumpIfNot a -> [ (a, Branch); (at + 1, Fallthrough) ]
  | F.Ir.PushtrapI a -> [ (a, Trap_handler); (at + 1, Fallthrough) ]
  | F.Ir.RaiseI _ | F.Ir.ReraiseI | F.Ir.Ret | F.Ir.Stop -> []
  | _ -> [ (at + 1, Fallthrough) ]
