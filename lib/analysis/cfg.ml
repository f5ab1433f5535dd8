module F = Retrofit_fiber

type cfun_model = Pure | Calls_back of string | Opaque

type spec = { sp_id : int; sp_in : string; sp : F.Ir.handle_spec }

type t = {
  program : F.Ir.program;
  fn_tbl : (string, F.Ir.fn) Hashtbl.t;
  fn_names : string list;
  specs : spec array;
  specs_in : (string, spec list) Hashtbl.t;
  cfun_model : string -> cfun_model;
  reachable : (string, unit) Hashtbl.t;
  parent : (string, string) Hashtbl.t;
  mutable reach_order : F.Ir.fn list;
  eff_labels : string list;
  exn_labels : string list;
  has_opaque_cfun : bool;
}

exception Unknown_function of string

let fn t name =
  match Hashtbl.find_opt t.fn_tbl name with
  | Some f -> f
  | None -> raise (Unknown_function name)

(* The direct sub-expressions of [e], left to right; [walk f] is applied
   to each.  Taking the walker as an argument lets both traversals
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

let effc_labels (h : F.Ir.handle_spec) = List.map fst h.F.Ir.effcs

let case_fns (h : F.Ir.handle_spec) =
  (h.F.Ir.retc :: List.map snd h.F.Ir.exncs) @ List.map snd h.F.Ir.effcs

(* Interprocedural edges out of one function: direct calls, the five
   function positions of a handler installation, and — through the
   C-function model — callback re-entries from external calls.  An
   [Opaque] C function is assumed able to call back into any function of
   the program. *)
type edge_kind =
  | Ecall
  | Ehandle_body
  | Ehandle_case
  | Ecallback of string  (** via the named C function *)

let iter_edges t name k =
  let f = fn t name in
  iter_expr
    (fun e ->
      match e with
      | F.Ir.Call (g, _) -> k Ecall g
      | F.Ir.Handle h ->
          k Ehandle_body h.F.Ir.body_fn;
          k Ehandle_case h.F.Ir.retc;
          List.iter (fun (_, g) -> k Ehandle_case g) h.F.Ir.exncs;
          List.iter (fun (_, g) -> k Ehandle_case g) h.F.Ir.effcs
      | F.Ir.Extcall (c, _) -> (
          match t.cfun_model c with
          | Pure -> ()
          | Calls_back g -> k (Ecallback c) g
          | Opaque -> List.iter (fun g -> k (Ecallback c) g) t.fn_names)
      | _ -> ())
    f.F.Ir.body

let builtin_exns =
  [ "Unhandled"; "Invalid_argument"; "Division_by_zero"; "Stack_overflow" ]

let build ?(cfun_model = fun _ -> Opaque) (program : F.Ir.program) =
  let fn_tbl = Hashtbl.create 16 in
  List.iter (fun (f : F.Ir.fn) -> Hashtbl.replace fn_tbl f.F.Ir.fn_name f)
    program.F.Ir.fns;
  let fn_names = List.map (fun (f : F.Ir.fn) -> f.F.Ir.fn_name) program.F.Ir.fns in
  let specs = ref [] and nspecs = ref 0 in
  let specs_in = Hashtbl.create 16 in
  let effs = ref [] and exns = ref (List.rev builtin_exns) in
  let add_label set l = if not (List.mem l !set) then set := l :: !set in
  let has_opaque = ref false in
  List.iter
    (fun (f : F.Ir.fn) ->
      iter_expr
        (fun e ->
          match e with
          | F.Ir.Handle h ->
              let sp = { sp_id = !nspecs; sp_in = f.F.Ir.fn_name; sp = h } in
              incr nspecs;
              specs := sp :: !specs;
              Hashtbl.replace specs_in f.F.Ir.fn_name
                (sp
                 ::
                 (match Hashtbl.find_opt specs_in f.F.Ir.fn_name with
                 | Some l -> l
                 | None -> []));
              List.iter (fun (l, _) -> add_label effs l) h.F.Ir.effcs;
              List.iter (fun (l, _) -> add_label exns l) h.F.Ir.exncs
          | F.Ir.Perform (l, _) -> add_label effs l
          | F.Ir.Raise (l, _) | F.Ir.Discontinue (_, l, _) -> add_label exns l
          | F.Ir.Trywith (_, cases) ->
              List.iter (fun (l, _, _) -> add_label exns l) cases
          | F.Ir.Extcall (c, _) ->
              if cfun_model c = Opaque then has_opaque := true
          | _ -> ())
        f.F.Ir.body)
    program.F.Ir.fns;
  let t =
    {
      program;
      fn_tbl;
      fn_names;
      specs = Array.of_list (List.rev !specs);
      specs_in;
      cfun_model;
      reachable = Hashtbl.create 16;
      parent = Hashtbl.create 16;
      reach_order = [];
      eff_labels = List.rev !effs;
      exn_labels = List.rev !exns;
      has_opaque_cfun = !has_opaque;
    }
  in
  (* Reachability from main over all edge kinds; the BFS tree doubles as
     the witness-path provenance for diagnostics. *)
  let q = Queue.create () in
  let visit ~from name =
    if Hashtbl.mem t.fn_tbl name && not (Hashtbl.mem t.reachable name) then begin
      Hashtbl.replace t.reachable name ();
      (match from with
      | Some p -> Hashtbl.replace t.parent name p
      | None -> ());
      Queue.push name q
    end
  in
  visit ~from:None program.F.Ir.main;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    order := fn t name :: !order;
    iter_edges t name (fun _ g -> visit ~from:(Some name) g)
  done;
  t.reach_order <- List.rev !order;
  t

let is_reachable t name = Hashtbl.mem t.reachable name

let path_to t name =
  let rec up acc name =
    match Hashtbl.find_opt t.parent name with
    | Some p -> up (name :: acc) p
    | None -> name :: acc
  in
  if is_reachable t name then up [] name else [ name ]

let specs_inside t name =
  match Hashtbl.find_opt t.specs_in name with Some l -> List.rev l | None -> []

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
