module Eff = Retrofit_core.Eff
module Ir = Retrofit_fiber.Ir

type nv = N_int of int | N_cont of (int, int) Eff.continuation

type _ Effect.t += Conf_eff : string * int -> int Effect.t

exception Conf_exn of string * int

exception Fuel_exhausted

exception Model_failure of string

let unhandled_label = "Unhandled"

let one_shot_label = "Invalid_argument"

let division_label = "Division_by_zero"

let run (p : Ir.program) : Outcome.t =
  let fns = Hashtbl.create 16 in
  List.iter (fun (f : Ir.fn) -> Hashtbl.replace fns f.fn_name f) p.fns;
  let fuel = ref 10_000_000 in
  let tick () =
    decr fuel;
    if !fuel <= 0 then raise Fuel_exhausted
  in
  let as_int = function
    | N_int n -> n
    | N_cont _ -> raise (Model_failure "continuation used as an integer")
  in
  let cont env = function Ir.Var k -> List.assoc_opt k env | _ -> None in
  let rec eval env (e : Ir.expr) : int =
    tick ();
    match e with
    | Ir.Int n -> n
    | Ir.Var x -> (
        match List.assoc_opt x env with
        | Some v -> as_int v
        | None -> raise (Model_failure ("unbound variable " ^ x)))
    | Ir.Binop (op, a, b) -> (
        (* left-to-right, like the other two backends; OCaml's own
           argument order is unspecified, so sequence explicitly *)
        let va = eval env a in
        let vb = eval env b in
        match op with
        | Ir.Add -> va + vb
        | Ir.Sub -> va - vb
        | Ir.Mul -> va * vb
        | Ir.Div ->
            if vb = 0 then raise (Conf_exn (division_label, va)) else va / vb
        | Ir.Lt -> if va < vb then 1 else 0
        | Ir.Le -> if va <= vb then 1 else 0
        | Ir.Eq -> if va = vb then 1 else 0
        | Ir.Mod | Ir.Ne -> raise (Model_failure "Mod/Ne outside the fragment"))
    | Ir.If (c, t, f) -> if eval env c <> 0 then eval env t else eval env f
    | Ir.Let (x, a, b) ->
        let v = eval env a in
        eval ((x, N_int v) :: env) b
    | Ir.Seq (a, b) ->
        ignore (eval env a);
        eval env b
    | Ir.Call (f, args) -> call f (eval_args env args)
    | Ir.Raise (l, e) -> raise (Conf_exn (l, eval env e))
    | Ir.Trywith (b, cases) -> (
        match eval env b with
        | v -> v
        | exception (Conf_exn (l, payload) as ex) -> (
            match List.find_opt (fun (l', _, _) -> l' = l) cases with
            | Some (_, x, h) -> eval ((x, N_int payload) :: env) h
            | None -> raise ex))
    | Ir.Perform (l, e) -> (
        let v = eval env e in
        try Eff.perform (Conf_eff (l, v))
        with Effect.Unhandled _ -> raise (Conf_exn (unhandled_label, 0)))
    | Ir.Handle h -> handle h (eval_args env h.body_args)
    | Ir.Continue (k, e) -> (
        let v = eval env e in
        match cont env k with
        | Some (N_cont c) -> (
            try Eff.continue c v
            with Effect.Continuation_already_resumed ->
              raise (Conf_exn (one_shot_label, 0)))
        | _ -> raise (Model_failure "continue outside an effect case"))
    | Ir.Discontinue (k, l, e) -> (
        let v = eval env e in
        match cont env k with
        | Some (N_cont c) -> (
            try Eff.discontinue c (Conf_exn (l, v))
            with Effect.Continuation_already_resumed ->
              raise (Conf_exn (one_shot_label, 0)))
        | _ -> raise (Model_failure "discontinue outside an effect case"))
    | Ir.Extcall (c, [ e ]) -> (
        let v = eval env e in
        match Fragment.cfun c with
        | Fragment.Ext_id -> v
        | Fragment.Callback f -> barrier (fun () -> call f [ N_int v ])
        | Fragment.Foreign -> raise (Model_failure ("unknown C function " ^ c)))
    | Ir.Extcall (c, _) ->
        raise (Model_failure ("C function " ^ c ^ " takes one argument"))
    | Ir.Repeat _ -> raise (Model_failure "Repeat outside the fragment")
  and eval_args env = function
    | [] -> []
    | a :: rest ->
        let v = eval env a in
        N_int v :: eval_args env rest
  and call f vs =
    match Hashtbl.find_opt fns f with
    | None -> raise (Model_failure ("unknown function " ^ f))
    | Some fn ->
        if List.length fn.Ir.params <> List.length vs then
          raise (Model_failure ("arity mismatch calling " ^ f));
        eval (List.combine fn.params vs) fn.body
  and handle (h : Ir.handle_spec) vs : int =
    Eff.match_with
      (fun () -> call h.body_fn vs)
      {
        Eff.retc = (fun r -> call h.retc [ N_int r ]);
        exnc =
          (fun ex ->
            match ex with
            | Conf_exn (l, payload) -> (
                match List.assoc_opt l h.exncs with
                | Some g -> call g [ N_int payload ]
                | None -> raise ex)
            | _ -> raise ex);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Conf_eff (l, v) -> (
                match List.assoc_opt l h.effcs with
                | Some g ->
                    Some
                      (fun (k : (c, _) Eff.continuation) ->
                        call g [ N_int v; N_cont k ])
                | None -> None)
            | _ -> None);
      }
  and barrier body : int =
    (* §3.1: effects must not cross C frames.  A callback boundary is a
       handler that discontinues every effect with Unhandled, raised at
       the perform site inside the callback. *)
    Eff.match_with body
      {
        Eff.retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Conf_eff _ ->
                Some
                  (fun (k : (c, _) Eff.continuation) ->
                    Eff.discontinue k (Conf_exn (unhandled_label, 0)))
            | _ -> None);
      }
  in
  match call p.main [] with
  | n -> Outcome.Value n
  | exception Conf_exn (l, payload) -> Outcome.normalize_exn l payload
  | exception Fuel_exhausted -> Outcome.Fuel_out
  | exception Model_failure m -> Outcome.Model_error ("native: " ^ m)
  | exception Effect.Unhandled _ -> Outcome.Unhandled
  | exception Effect.Continuation_already_resumed -> Outcome.One_shot
  | exception Stack_overflow -> Outcome.Model_error "native: stack overflow"
