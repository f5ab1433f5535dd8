open Retrofit_fiber.Ir

let ext_id e = Extcall ("c_id", [ e ])

let callback f e = Extcall ("cb_" ^ f, [ e ])

type cfun = Ext_id | Callback of string | Foreign

let cfun c =
  if c = "c_id" then Ext_id
  else if String.length c > 3 && String.starts_with ~prefix:"cb_" c then
    Callback (String.sub c 3 (String.length c - 3))
  else Foreign

(* ------------------------------------------------------------------ *)
(* Size *)

let rec expr_nodes = function
  | Int _ | Var _ -> 1
  | Binop (_, a, b) | Seq (a, b) | Let (_, a, b) | Repeat (a, b) ->
      1 + expr_nodes a + expr_nodes b
  | If (a, b, c) -> 1 + expr_nodes a + expr_nodes b + expr_nodes c
  | Call (_, args) | Extcall (_, args) | Handle { body_args = args; _ } ->
      List.fold_left (fun n a -> n + expr_nodes a) 1 args
  | Raise (_, e) | Perform (_, e) | Continue (_, e) | Discontinue (_, _, e) ->
      1 + expr_nodes e
  | Trywith (b, cases) ->
      List.fold_left (fun n (_, _, e) -> n + expr_nodes e) (1 + expr_nodes b) cases

let program_nodes p = List.fold_left (fun n f -> n + expr_nodes f.body) 0 p.fns

(* ------------------------------------------------------------------ *)
(* Well-formedness *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* The continuation parameter of every function, [Some k] for an effect
   case: one a handler's [effcs] names, or one that resumes its second
   parameter. *)
let continuation_params (p : program) =
  let effect_cases = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Retrofit_analysis.Cfg.iter_expr
        (function
          | Handle h ->
              List.iter (fun (_, g) -> Hashtbl.replace effect_cases g ()) h.effcs
          | Continue (Var x, _) | Discontinue (Var x, _, _)
            when List.length f.params = 2 && x = List.nth f.params 1 ->
              Hashtbl.replace effect_cases f.fn_name ()
          | _ -> ())
        f.body)
    p.fns;
  let kvars = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace kvars f.fn_name
        (match (Hashtbl.mem effect_cases f.fn_name, f.params) with
        | false, _ -> None
        | true, [ _; k ] -> Some k
        | true, _ ->
            invalid "%s: an effect case must take exactly two parameters" f.fn_name))
    p.fns;
  kvars

(* [known] maps a function name to its definition for names legal at
   the current point: earlier functions plus (for calls) the function
   being checked, so recursion is self- or backward-referencing only —
   which is what the semantics lowering's nested [let rec]s scope. *)
let check_fn kvars known (self : fn) =
  let lookup ctx name =
    match Hashtbl.find_opt known name with
    | Some f -> f
    | None ->
        if name = self.fn_name then self
        else invalid "%s: %s references %s before its definition" self.fn_name ctx name
  in
  let kvar = Hashtbl.find kvars self.fn_name in
  let int_params =
    match kvar with Some _ -> [ List.hd self.params ] | None -> self.params
  in
  let check_plain ctx ~arity name =
    let f = lookup ctx name in
    if Hashtbl.find kvars name <> None then
      invalid "%s: %s must be a plain function" self.fn_name name;
    if List.length f.params <> arity then
      invalid "%s: %s has arity %d, %s needs %d" self.fn_name name
        (List.length f.params) ctx arity
  in
  let rec go vars = function
    | Int _ -> ()
    | Var x ->
        if Some x = kvar then
          invalid "%s: continuation %s used as an integer" self.fn_name x;
        if not (List.mem x vars) then invalid "%s: unbound variable %s" self.fn_name x
    | Binop ((Mod | Ne), _, _) | Repeat _ ->
        invalid "%s: Mod, Ne and Repeat are outside the fragment" self.fn_name
    | Binop (_, a, b) | Seq (a, b) ->
        go vars a;
        go vars b
    | If (a, b, c) ->
        go vars a;
        go vars b;
        go vars c
    | Let (x, a, b) ->
        go vars a;
        go (x :: vars) b
    | Call (f, args) ->
        check_plain "call" ~arity:(List.length args) f;
        List.iter (go vars) args
    | Raise (_, e) | Perform (_, e) -> go vars e
    | Trywith (b, cases) ->
        go vars b;
        List.iter (fun (_, x, e) -> go (x :: vars) e) cases
    | Handle h ->
        check_plain "handle body" ~arity:(List.length h.body_args) h.body_fn;
        List.iter (go vars) h.body_args;
        check_plain "return case" ~arity:1 h.retc;
        List.iter (fun (_, g) -> check_plain "exception case" ~arity:1 g) h.exncs;
        List.iter (fun (_, g) -> ignore (lookup "effect case" g)) h.effcs
    | Continue (k, e) | Discontinue (k, _, e) ->
        (match (k, kvar) with
        | Var x, Some k when x = k -> ()
        | _ ->
            invalid "%s: %s is not this function's continuation parameter"
              self.fn_name (expr_to_string k));
        go vars e
    | Extcall (c, [ e ]) ->
        (match cfun c with
        | Ext_id -> ()
        | Callback f -> check_plain "callback" ~arity:1 f
        | Foreign -> invalid "%s: unknown C function %s" self.fn_name c);
        go vars e
    | Extcall (c, _) -> invalid "%s: C function %s takes one argument" self.fn_name c
  in
  go int_params self.body

let validate (p : program) : (unit, string) result =
  try
    let kvars = continuation_params p in
    let known = Hashtbl.create 16 in
    List.iter
      (fun f ->
        if Hashtbl.mem known f.fn_name then invalid "duplicate function %s" f.fn_name;
        check_fn kvars known f;
        Hashtbl.add known f.fn_name f)
      p.fns;
    (match Hashtbl.find_opt known p.main with
    | Some { params = []; _ } -> ()
    | Some _ -> invalid "main %s must be a 0-argument plain function" p.main
    | None -> invalid "main %s is not defined" p.main);
    Ok ()
  with Invalid msg -> Error msg
