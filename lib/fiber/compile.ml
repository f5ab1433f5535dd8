type cfn = {
  fn_index : int;
  fn_name : string;
  entry : int;
  code_end : int;
  nparams : int;
  nlocals : int;
  max_traps : int;
  frame_words : int;
  is_leaf : bool;
  max_ostack : int;
  cfi_edits : (int * int) list;
}

type handle_desc = {
  h_body : int;
  h_nargs : int;
  h_retc : int;
  h_exncs : (int * int) list;
  h_effcs : (int * int) list;
  h_exn_tbl : (int, int) Hashtbl.t;
  h_eff_tbl : (int, int) Hashtbl.t;
}

type compiled = {
  code : Ir.instr array;
  runs : int array;
  fns : cfn array;
  handles : handle_desc array;
  exn_names : string array;
  eff_names : string array;
  cfun_names : string array;
  fn_ids : (string, int) Hashtbl.t;
  exn_ids : (string, int) Hashtbl.t;
  eff_ids : (string, int) Hashtbl.t;
  main_index : int;
}

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let unhandled_exn = "Unhandled"

let invalid_argument_exn = "Invalid_argument"

let division_by_zero_exn = "Division_by_zero"

let stack_overflow_exn = "Stack_overflow"

(* ------------------------------------------------------------------ *)
(* Interning *)

type 'a interner = { table : (string, int) Hashtbl.t; mutable items : string list }

let interner () = { table = Hashtbl.create 16; items = [] }

let intern t name =
  match Hashtbl.find_opt t.table name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.table in
      Hashtbl.add t.table name i;
      t.items <- name :: t.items;
      i

let interned t = Array.of_list (List.rev t.items)

(* Dispatch table for a handler's (id → function) cases.  [List.assoc]
   takes the first binding for a duplicated id, so the table must too. *)
let dispatch_tbl assoc =
  let tbl = Hashtbl.create (max 4 (List.length assoc)) in
  List.iter
    (fun (id, fid) -> if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id fid)
    assoc;
  tbl

(* ------------------------------------------------------------------ *)
(* Leaf analysis: a function is a leaf when its body contains no call of
   any kind (OCaml call, external call, handler installation, perform or
   resumption — all of which push frames or switch stacks). *)

let rec has_calls (e : Ir.expr) =
  match e with
  | Ir.Int _ | Ir.Var _ -> false
  | Ir.Binop (_, a, b) | Ir.Seq (a, b) | Ir.Let (_, a, b) | Ir.Repeat (a, b) ->
      has_calls a || has_calls b
  | Ir.If (c, t, f) -> has_calls c || has_calls t || has_calls f
  | Ir.Call _ | Ir.Extcall _ | Ir.Handle _ | Ir.Perform _ | Ir.Continue _
  | Ir.Discontinue _ ->
      true
  | Ir.Raise (_, a) -> has_calls a
  | Ir.Trywith (body, cases) ->
      has_calls body || List.exists (fun (_, _, b) -> has_calls b) cases

(* ------------------------------------------------------------------ *)

type fn_state = {
  mutable nlocals : int;
  mutable cur_traps : int;
  mutable max_traps : int;
  mutable edits : (int * int) list;  (* collected in reverse *)
}

(* ------------------------------------------------------------------ *)
(* Operand-stack depth of one compiled function, by forward dataflow
   over its instruction range.  The depth entering each instruction is
   deterministic (the compiler always materialises the same stack shape
   at a join), so taking the max at joins is exact; the peak over entry
   depths is the peak Vec length because every intra-instruction push is
   the entry depth of some successor.  A trap handler is entered with
   the depth recorded at its PushtrapI plus the two words (payload; id)
   the runtime pushes after truncating. *)

let max_operand_depth ~(code : int -> Ir.instr) ~entry ~code_end ~arity
    ~handle_nargs =
  let n = code_end - entry in
  let depth = Array.make (max n 1) (-1) in
  let maxd = ref 0 in
  let work = Queue.create () in
  let visit addr d =
    if addr >= entry && addr < code_end && depth.(addr - entry) < d then begin
      depth.(addr - entry) <- d;
      Queue.push addr work
    end
  in
  visit entry 0;
  while not (Queue.is_empty work) do
    let addr = Queue.pop work in
    let d = depth.(addr - entry) in
    if d > !maxd then maxd := d;
    let next nd = visit (addr + 1) nd in
    match code addr with
    | Ir.Const _ | Ir.Load _ | Ir.Dup -> next (d + 1)
    | Ir.Store _ | Ir.Pop | Ir.Bin _ -> next (d - 1)
    | Ir.Jump a -> visit a d
    | Ir.JumpIfNot a ->
        visit a (d - 1);
        next (d - 1)
    | Ir.CallI fid -> next (d - arity fid + 1)
    | Ir.HandleI h -> next (d - handle_nargs h + 1)
    | Ir.ExtcallI (_, nargs) -> next (d - nargs + 1)
    | Ir.PerformI _ -> next d (* payload popped; result pushed on resume *)
    | Ir.ContinueI | Ir.DiscontinueI _ -> next (d - 1)
    | Ir.PushtrapI target ->
        visit target (d + 2);
        next d
    | Ir.PoptrapI -> next d
    | Ir.RaiseI _ | Ir.ReraiseI | Ir.Ret | Ir.Stop -> ()
  done;
  !maxd

(* ------------------------------------------------------------------ *)
(* Straight-line runs: for each pc, how many instructions from it on the
   machine may charge at once.  A run is simple instructions, none of
   which emits an event, calls a hook or switches fiber; it ends with
   and includes the first jump or trapping [Bin] (the one simple
   instruction that can raise), so a raise is always a run's last op.
   Every other instruction starts no run (0). *)

let straight_runs code =
  let n = Array.length code in
  let runs = Array.make n 0 in
  for pc = n - 1 downto 0 do
    runs.(pc) <-
      (match (code.(pc) : Ir.instr) with
      | Ir.Jump _ | Ir.JumpIfNot _ | Ir.Bin (Ir.Div | Ir.Mod) -> 1
      | Ir.Const _ | Ir.Load _ | Ir.Store _ | Ir.Dup | Ir.Pop | Ir.Bin _ ->
          if pc + 1 < n then 1 + runs.(pc + 1) else 1
      | Ir.CallI _ | Ir.Ret | Ir.PushtrapI _ | Ir.PoptrapI | Ir.RaiseI _ | Ir.ReraiseI
      | Ir.PerformI _ | Ir.HandleI _ | Ir.ContinueI | Ir.DiscontinueI _
      | Ir.ExtcallI _ | Ir.Stop ->
          0)
  done;
  runs

let compile (program : Ir.program) =
  let code = Retrofit_util.Vec.create ~capacity:256 () in
  let emit i =
    Retrofit_util.Vec.push code i;
    Retrofit_util.Vec.length code - 1
  in
  let here () = Retrofit_util.Vec.length code in
  let patch addr i = Retrofit_util.Vec.set code addr i in
  let exns = interner () in
  let effs = interner () in
  let cfuns = interner () in
  (* Built-ins are always interned so the runtime can raise them. *)
  ignore (intern exns unhandled_exn);
  ignore (intern exns invalid_argument_exn);
  ignore (intern exns division_by_zero_exn);
  ignore (intern exns stack_overflow_exn);
  let fn_index = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ir.fn) ->
      if Hashtbl.mem fn_index f.Ir.fn_name then
        error "duplicate function %s" f.Ir.fn_name;
      Hashtbl.add fn_index f.Ir.fn_name i)
    program.Ir.fns;
  let fn_arr = Array.of_list program.Ir.fns in
  let lookup_fn name =
    match Hashtbl.find_opt fn_index name with
    | Some i -> i
    | None -> error "unknown function %s" name
  in
  let arity i = List.length fn_arr.(i).Ir.params in
  let handles = Retrofit_util.Vec.create () in
  (* cfa offset at a point = 1 (ra) + nlocals + trap words currently
     pushed.  nlocals is the function's final local count, which is known
     only after compiling the body, so edits record the TRAP part and are
     fixed up afterwards. *)
  let record_edit st =
    st.edits <- (here (), st.cur_traps) :: st.edits
  in
  let rec compile_expr st env (e : Ir.expr) =
    match e with
    | Ir.Int n -> ignore (emit (Ir.Const n))
    | Ir.Var x -> (
        match List.assoc_opt x env with
        | Some slot -> ignore (emit (Ir.Load slot))
        | None -> error "unbound variable %s" x)
    | Ir.Binop (op, a, b) ->
        compile_expr st env a;
        compile_expr st env b;
        ignore (emit (Ir.Bin op))
    | Ir.If (c, t, f) ->
        compile_expr st env c;
        let jf = emit (Ir.JumpIfNot 0) in
        compile_expr st env t;
        let jend = emit (Ir.Jump 0) in
        patch jf (Ir.JumpIfNot (here ()));
        compile_expr st env f;
        patch jend (Ir.Jump (here ()))
    | Ir.Let (x, e1, e2) ->
        compile_expr st env e1;
        let slot = st.nlocals in
        st.nlocals <- st.nlocals + 1;
        ignore (emit (Ir.Store slot));
        compile_expr st ((x, slot) :: env) e2
    | Ir.Seq (a, b) ->
        compile_expr st env a;
        ignore (emit Ir.Pop);
        compile_expr st env b
    | Ir.Call (name, args) ->
        let fid = lookup_fn name in
        if List.length args <> arity fid then
          error "arity mismatch calling %s" name;
        List.iter (compile_expr st env) args;
        ignore (emit (Ir.CallI fid))
    | Ir.Extcall (name, args) ->
        let cid = intern cfuns name in
        List.iter (compile_expr st env) args;
        ignore (emit (Ir.ExtcallI (cid, List.length args)))
    | Ir.Raise (label, payload) ->
        compile_expr st env payload;
        ignore (emit (Ir.RaiseI (intern exns label)))
    | Ir.Trywith (body, cases) ->
        let push = emit (Ir.PushtrapI 0) in
        st.cur_traps <- st.cur_traps + 1;
        if st.cur_traps > st.max_traps then st.max_traps <- st.cur_traps;
        record_edit st;
        compile_expr st env body;
        ignore (emit Ir.PoptrapI);
        st.cur_traps <- st.cur_traps - 1;
        record_edit st;
        let jend = emit (Ir.Jump 0) in
        (* Handler entry: the runtime has popped the trap (so the cfa
           offset here is the post-pop one) and pushed [payload; id] with
           the id on top. *)
        patch push (Ir.PushtrapI (here ()));
        let exit_jumps = ref [ jend ] in
        let slot = st.nlocals in
        st.nlocals <- st.nlocals + 1;
        List.iter
          (fun (label, var, handler_body) ->
            let id = intern exns label in
            ignore (emit Ir.Dup);
            ignore (emit (Ir.Const id));
            ignore (emit (Ir.Bin Ir.Eq));
            let skip = emit (Ir.JumpIfNot 0) in
            ignore (emit Ir.Pop);
            (* drop the id, bind the payload *)
            ignore (emit (Ir.Store slot));
            compile_expr st ((var, slot) :: env) handler_body;
            exit_jumps := emit (Ir.Jump 0) :: !exit_jumps;
            patch skip (Ir.JumpIfNot (here ())))
          cases;
        (* no case matched: re-raise (ops hold payload; id) *)
        ignore (emit Ir.ReraiseI);
        List.iter (fun j -> patch j (Ir.Jump (here ()))) !exit_jumps
    | Ir.Perform (label, payload) ->
        compile_expr st env payload;
        ignore (emit (Ir.PerformI (intern effs label)))
    | Ir.Handle spec ->
        let body = lookup_fn spec.Ir.body_fn in
        if List.length spec.Ir.body_args <> arity body then
          error "arity mismatch in handle body %s" spec.Ir.body_fn;
        let retc = lookup_fn spec.Ir.retc in
        if arity retc <> 1 then error "retc %s must take 1 argument" spec.Ir.retc;
        let h_exncs =
          List.map
            (fun (label, fname) ->
              let f = lookup_fn fname in
              if arity f <> 1 then
                error "exception case %s must take 1 argument" fname;
              (intern exns label, f))
            spec.Ir.exncs
        in
        let h_effcs =
          List.map
            (fun (label, fname) ->
              let f = lookup_fn fname in
              if arity f <> 2 then
                error "effect case %s must take 2 arguments (x, k)" fname;
              (intern effs label, f))
            spec.Ir.effcs
        in
        List.iter (compile_expr st env) spec.Ir.body_args;
        Retrofit_util.Vec.push handles
          {
            h_body = body;
            h_nargs = arity body;
            h_retc = retc;
            h_exncs;
            h_effcs;
            h_exn_tbl = dispatch_tbl h_exncs;
            h_eff_tbl = dispatch_tbl h_effcs;
          };
        ignore (emit (Ir.HandleI (Retrofit_util.Vec.length handles - 1)))
    | Ir.Repeat (count, body) ->
        compile_expr st env count;
        let slot = st.nlocals in
        st.nlocals <- st.nlocals + 1;
        ignore (emit (Ir.Store slot));
        let top = here () in
        ignore (emit (Ir.Load slot));
        let exit_jump = emit (Ir.JumpIfNot 0) in
        compile_expr st env body;
        ignore (emit Ir.Pop);
        ignore (emit (Ir.Load slot));
        ignore (emit (Ir.Const 1));
        ignore (emit (Ir.Bin Ir.Sub));
        ignore (emit (Ir.Store slot));
        ignore (emit (Ir.Jump top));
        patch exit_jump (Ir.JumpIfNot (here ()));
        ignore (emit (Ir.Const 0))
    | Ir.Continue (k, v) ->
        compile_expr st env k;
        compile_expr st env v;
        ignore (emit Ir.ContinueI)
    | Ir.Discontinue (k, label, payload) ->
        compile_expr st env k;
        compile_expr st env payload;
        ignore (emit (Ir.DiscontinueI (intern exns label)))
  in
  let compiled_fns =
    Array.mapi
      (fun fn_idx (f : Ir.fn) ->
        let entry = here () in
        let nparams = List.length f.Ir.params in
        let st = { nlocals = nparams; cur_traps = 0; max_traps = 0; edits = [] } in
        let env = List.mapi (fun i p -> (p, i)) f.Ir.params in
        compile_expr st env f.Ir.body;
        ignore (emit Ir.Ret);
        let code_end = here () in
        let max_ostack =
          max_operand_depth
            ~code:(Retrofit_util.Vec.get code)
            ~entry ~code_end ~arity
            ~handle_nargs:(fun h -> (Retrofit_util.Vec.get handles h).h_nargs)
        in
        let base_offset = 1 + st.nlocals in
        let cfi_edits =
          (entry, base_offset)
          :: List.rev_map
               (fun (addr, traps) -> (addr, base_offset + (Layout.trap_words * traps)))
               st.edits
        in
        {
          fn_index = fn_idx;
          fn_name = f.Ir.fn_name;
          entry;
          code_end;
          nparams;
          nlocals = st.nlocals;
          max_traps = st.max_traps;
          frame_words = 1 + st.nlocals + (Layout.trap_words * st.max_traps);
          is_leaf = not (has_calls f.Ir.body);
          max_ostack;
          cfi_edits;
        })
      fn_arr
  in
  let main_index =
    match Hashtbl.find_opt fn_index program.Ir.main with
    | Some i ->
        if arity i <> 0 then error "main function %s must take 0 arguments" program.Ir.main;
        i
    | None -> error "missing main function %s" program.Ir.main
  in
  let code = Retrofit_util.Vec.to_array code in
  {
    code;
    runs = straight_runs code;
    fns = compiled_fns;
    handles = Retrofit_util.Vec.to_array handles;
    exn_names = interned exns;
    eff_names = interned effs;
    cfun_names = interned cfuns;
    fn_ids = Hashtbl.copy fn_index;
    exn_ids = Hashtbl.copy exns.table;
    eff_ids = Hashtbl.copy effs.table;
    main_index;
  }

(* Functions are emitted back to back, so [fns] is sorted by [entry]
   and the ranges are disjoint: binary-search the covering one. *)
let function_at compiled addr =
  let fns = compiled.fns in
  let lo = ref 0 and hi = ref (Array.length fns - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let f = fns.(mid) in
    if addr < f.entry then hi := mid - 1
    else if addr >= f.code_end then lo := mid + 1
    else begin
      found := Some f;
      lo := !hi + 1
    end
  done;
  !found

let exn_id compiled name =
  match Hashtbl.find_opt compiled.exn_ids name with
  | Some i -> i
  | None -> raise Not_found

let exn_name compiled id =
  if id >= 0 && id < Array.length compiled.exn_names then compiled.exn_names.(id)
  else Printf.sprintf "<exn:%d>" id

let eff_id compiled name =
  match Hashtbl.find_opt compiled.eff_ids name with
  | Some i -> i
  | None -> raise Not_found

let disassemble compiled =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s/%d (frame=%d words%s):\n" f.fn_name f.nparams
           f.frame_words
           (if f.is_leaf then ", leaf" else ""));
      for addr = f.entry to f.code_end - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  %4d  %s\n" addr (Ir.instr_to_string compiled.code.(addr)))
      done)
    compiled.fns;
  Buffer.contents buf
