open Retrofit_fiber.Ir

let drop_nth xs i = List.filteri (fun j _ -> j <> i) xs

let replace_nth xs i x' = List.mapi (fun j x -> if j = i then x' else x) xs

(* Candidate replacements for a single expression node: simpler
   expressions that keep the program well-formed often enough to be
   worth trying (Fragment.validate filters the rest). *)
let node_candidates (e : expr) : expr list =
  let subs =
    match e with
    | Int _ | Var _ -> []
    | Binop (_, a, b) | Let (_, a, b) | Seq (a, b) | Repeat (a, b) -> [ a; b ]
    | If (a, b, c) -> [ a; b; c ]
    | Call (_, args) | Extcall (_, args) -> args
    | Raise (_, e) | Perform (_, e) | Continue (_, e) | Discontinue (_, _, e) -> [ e ]
    | Trywith (b, _) -> [ b ]
    | Handle h -> h.body_args
  in
  let structural =
    match e with
    | Trywith (b, cases) when List.length cases > 1 ->
        (* drop one case at a time *)
        List.mapi (fun i _ -> Trywith (b, drop_nth cases i)) cases
    | Trywith (b, [ _ ]) -> [ b ]
    | Handle h ->
        Call (h.body_fn, h.body_args)
        :: List.mapi
             (fun i _ -> Handle { h with exncs = drop_nth h.exncs i })
             h.exncs
        @ List.mapi (fun i _ -> Handle { h with effcs = drop_nth h.effcs i }) h.effcs
    | _ -> []
  in
  let const = match e with Int 0 -> [] | _ -> [ Int 0 ] in
  const @ subs @ structural

(* Every program obtained from [e] by replacing exactly one node with
   one of its candidates; [wrap] rebuilds the whole program around the
   modified expression.  The continuation operand of a resume is part
   of its node and is never replaced. *)
let rec expr_variants (e : expr) (wrap : expr -> program) : program list =
  let args_variants args rebuild =
    List.concat
      (List.mapi
         (fun i a -> expr_variants a (fun a' -> wrap (rebuild (replace_nth args i a'))))
         args)
  in
  let here = List.map wrap (node_candidates e) in
  let inside =
    match e with
    | Int _ | Var _ -> []
    | Binop (op, a, b) ->
        expr_variants a (fun a' -> wrap (Binop (op, a', b)))
        @ expr_variants b (fun b' -> wrap (Binop (op, a, b')))
    | Repeat (a, b) ->
        expr_variants a (fun a' -> wrap (Repeat (a', b)))
        @ expr_variants b (fun b' -> wrap (Repeat (a, b')))
    | If (a, b, c) ->
        expr_variants a (fun a' -> wrap (If (a', b, c)))
        @ expr_variants b (fun b' -> wrap (If (a, b', c)))
        @ expr_variants c (fun c' -> wrap (If (a, b, c')))
    | Let (x, a, b) ->
        expr_variants a (fun a' -> wrap (Let (x, a', b)))
        @ expr_variants b (fun b' -> wrap (Let (x, a, b')))
    | Seq (a, b) ->
        expr_variants a (fun a' -> wrap (Seq (a', b)))
        @ expr_variants b (fun b' -> wrap (Seq (a, b')))
    | Call (f, args) -> args_variants args (fun args -> Call (f, args))
    | Extcall (c, args) -> args_variants args (fun args -> Extcall (c, args))
    | Raise (l, e) -> expr_variants e (fun e' -> wrap (Raise (l, e')))
    | Perform (l, e) -> expr_variants e (fun e' -> wrap (Perform (l, e')))
    | Continue (k, e) -> expr_variants e (fun e' -> wrap (Continue (k, e')))
    | Discontinue (k, l, e) -> expr_variants e (fun e' -> wrap (Discontinue (k, l, e')))
    | Trywith (b, cases) ->
        expr_variants b (fun b' -> wrap (Trywith (b', cases)))
        @ List.concat
            (List.mapi
               (fun i (l, x, h) ->
                 expr_variants h (fun h' ->
                     wrap (Trywith (b, replace_nth cases i (l, x, h')))))
               cases)
    | Handle h ->
        args_variants h.body_args (fun args -> Handle { h with body_args = args })
  in
  here @ inside

let variants (p : program) : program list =
  List.concat
    (List.mapi
       (fun i (fn : fn) ->
         expr_variants fn.body (fun body' ->
             { p with fns = replace_nth p.fns i { fn with body = body' } }))
       p.fns)

let fn_refs (fn : fn) =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  Retrofit_analysis.Cfg.iter_expr
    (function
      | Call (f, _) -> add f
      | Extcall (c, _) -> (
          match Fragment.cfun c with Fragment.Callback f -> add f | _ -> ())
      | Handle h ->
          add h.body_fn;
          add h.retc;
          List.iter (fun (_, g) -> add g) (h.exncs @ h.effcs)
      | _ -> ())
    fn.body;
  !acc

let prune (p : program) : program =
  let by_name = List.map (fun (f : fn) -> (f.fn_name, f)) p.fns in
  let live = Hashtbl.create 16 in
  let rec mark name =
    if not (Hashtbl.mem live name) then begin
      Hashtbl.replace live name ();
      match List.assoc_opt name by_name with
      | None -> ()
      | Some fn -> List.iter mark (fn_refs fn)
    end
  in
  mark p.main;
  { p with fns = List.filter (fun (f : fn) -> Hashtbl.mem live f.fn_name) p.fns }

let minimize ~interesting (p : program) : program =
  let valid q = match Fragment.validate q with Ok () -> true | Error _ -> false in
  let current = ref p in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < 200 do
    incr rounds;
    progress := false;
    let n = Fragment.program_nodes !current in
    let cands =
      variants !current
      |> List.map prune
      |> List.filter (fun q -> Fragment.program_nodes q < n && valid q)
      |> List.sort (fun a b ->
             compare (Fragment.program_nodes a) (Fragment.program_nodes b))
    in
    match List.find_opt interesting cands with
    | Some q ->
        current := q;
        progress := true
    | None -> ()
  done;
  !current
