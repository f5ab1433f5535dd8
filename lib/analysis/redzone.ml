module F = Retrofit_fiber

type computed = {
  c_leaf : bool;
  c_nlocals : int;
  c_max_traps : int;
  c_frame_words : int;
  c_max_ostack : int;
}

(* Recompute a function's frame metadata from its instruction range
   alone — deliberately not reusing the compiler's per-expression
   bookkeeping, so a wrong claim in [cfn] cannot leak into the audit.

   Trap depth is a forward dataflow: a [PushtrapI] deepens the
   fall-through path by one, and its handler target is entered at the
   push-site depth (the machine pops the trap before jumping there).
   Operand depth follows the same edges, with the handler target two
   words deeper for the pushed [payload; id]. *)
let compute (c : F.Compile.compiled) (fn : F.Compile.cfn) =
  let len = fn.F.Compile.code_end - fn.F.Compile.entry in
  let code at = c.F.Compile.code.(at) in
  let leaf = ref true in
  let max_slot = ref (-1) in
  let arity fid = c.F.Compile.fns.(fid).F.Compile.nparams in
  let handle_nargs h = c.F.Compile.handles.(h).F.Compile.h_nargs in
  (* (trap depth, operand depth) entering each instruction *)
  let traps = Array.make len (-1) in
  let ostack = Array.make len (-1) in
  let max_traps = ref 0 and max_ostack = ref 0 in
  let q = Queue.create () in
  let visit at td od =
    if at >= fn.F.Compile.entry && at < fn.F.Compile.code_end then begin
      let i = at - fn.F.Compile.entry in
      if traps.(i) < td || ostack.(i) < od then begin
        if td > traps.(i) then traps.(i) <- td;
        if od > ostack.(i) then ostack.(i) <- od;
        if td > !max_traps then max_traps := td;
        if od > !max_ostack then max_ostack := od;
        Queue.push (at, td, od) q
      end
    end
  in
  visit fn.F.Compile.entry 0 0;
  while not (Queue.is_empty q) do
    let at, td, od = Queue.pop q in
    (match code at with
    | F.Ir.CallI _ | F.Ir.ExtcallI _ | F.Ir.HandleI _ | F.Ir.PerformI _
    | F.Ir.ContinueI | F.Ir.DiscontinueI _ ->
        leaf := false
    | F.Ir.Load s | F.Ir.Store s -> if s > !max_slot then max_slot := s
    | _ -> ());
    let od' =
      match code at with
      | F.Ir.Const _ | F.Ir.Load _ | F.Ir.Dup -> od + 1
      | F.Ir.Store _ | F.Ir.Pop | F.Ir.Bin _ | F.Ir.ContinueI
      | F.Ir.DiscontinueI _ ->
          od - 1
      | F.Ir.CallI fid -> od - arity fid + 1
      | F.Ir.HandleI h -> od - handle_nargs h + 1
      | F.Ir.ExtcallI (_, n) -> od - n + 1
      | _ -> od
    in
    List.iter
      (fun (next, edge) ->
        match edge with
        | Cfg.Trap_handler -> visit next td (od + 2)
        | Cfg.Fallthrough | Cfg.Branch -> (
            match code at with
            | F.Ir.PushtrapI _ -> visit next (td + 1) od'
            | F.Ir.PoptrapI -> visit next (td - 1) od'
            | F.Ir.JumpIfNot _ -> visit next td (od - 1)
            | _ -> visit next td od'))
      (Cfg.instr_successors ~code ~at)
  done;
  let nlocals = max fn.F.Compile.nparams (!max_slot + 1) in
  {
    c_leaf = !leaf;
    c_nlocals = nlocals;
    c_max_traps = !max_traps;
    c_frame_words = 1 + nlocals + (F.Layout.trap_words * !max_traps);
    c_max_ostack = !max_ostack;
  }

(* The §5.2 elision rule is sound as long as a function whose check is
   skipped really is a leaf whose frame fits in the red zone.  A claim
   that over-reserves (frame larger than the recomputed one, or leaf
   claimed non-leaf) costs a check it didn't need; a claim that
   under-reserves lets an unchecked frame overrun the zone, which is
   the only direction the audit reports. *)
let audit_fn ~red_zone (c : F.Compile.compiled) (fn : F.Compile.cfn) =
  let cm = compute c fn in
  let elides =
    not
      (F.Otss.needs_check ~red_zone ~is_leaf:fn.F.Compile.is_leaf
         ~frame_words:fn.F.Compile.frame_words)
  in
  if elides && ((not cm.c_leaf) || cm.c_frame_words > red_zone) then
    Some
      {
        Diag.kind =
          Diag.Redzone_unsound
            {
              claimed_frame = fn.F.Compile.frame_words;
              computed_frame = cm.c_frame_words;
              claimed_leaf = fn.F.Compile.is_leaf;
              computed_leaf = cm.c_leaf;
            };
        verdict = Diag.Must;
        fn = fn.F.Compile.fn_name;
        path = [];
        site = Printf.sprintf "code [%d, %d)" fn.F.Compile.entry
            fn.F.Compile.code_end;
      }
  else None

let audit ~red_zone (c : F.Compile.compiled) =
  Diag.sorted
    (Array.to_list c.F.Compile.fns
    |> List.filter_map (audit_fn ~red_zone c))
