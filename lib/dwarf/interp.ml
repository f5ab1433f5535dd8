(* Interprets the encoded words in place, one operation at a time, so
   unwinding a frame allocates nothing: decoding the whole program into
   a list per frame made every DWARF probe of a deep stack churn the
   minor heap and promote its half-built backtrace.  An offset is never
   negative ([Cfi.encode] rejects it), so -1 stands for "no rule yet". *)
let cfa_offset ?ops (fde : Table.fde) ~pc =
  if pc < fde.fde_start || pc >= fde.fde_end then
    invalid_arg "Interp.cfa_offset: pc outside FDE";
  let code = fde.bytecode in
  let n = Array.length code in
  if n mod 2 <> 0 then invalid_arg "Cfi.decode: odd length";
  let tally () = match ops with Some r -> incr r | None -> () in
  let rec go i loc offset =
    if i >= n then offset
    else begin
      let op = code.(i) and arg = code.(i + 1) in
      if op = Cfi.op_advance then begin
        tally ();
        let loc' = loc + arg in
        if loc' > pc then offset else go (i + 2) loc' offset
      end
      else if op = Cfi.op_def_cfa_offset then begin
        tally ();
        go (i + 2) loc arg
      end
      else invalid_arg (Printf.sprintf "Cfi.decode: bad opcode %d" op)
    end
  in
  let offset = go 0 fde.fde_start (-1) in
  if offset < 0 then invalid_arg "Interp.cfa_offset: no rule at pc" else offset

module Precompiled = struct
  type t = { base : int; offsets : int array }
  (* offsets.(pc - base) = cfa offset, or -1 for gaps between functions *)

  let of_table table =
    let fdes = Table.fdes table in
    if Array.length fdes = 0 then { base = 0; offsets = [||] }
    else begin
      let base = fdes.(0).Table.fde_start in
      let limit =
        Array.fold_left (fun acc f -> max acc f.Table.fde_end) base fdes
      in
      let offsets = Array.make (limit - base) (-1) in
      Array.iter
        (fun (f : Table.fde) ->
          let program = Cfi.decode f.bytecode in
          let rec fill loc offset = function
            | [] ->
                (match offset with
                | Some o ->
                    for a = loc to f.fde_end - 1 do
                      offsets.(a - base) <- o
                    done
                | None -> ())
            | Cfi.Advance_loc d :: rest ->
                (match offset with
                | Some o ->
                    for a = loc to min (loc + d) f.fde_end - 1 do
                      offsets.(a - base) <- o
                    done
                | None -> ());
                fill (loc + d) offset rest
            | Cfi.Def_cfa_offset o :: rest -> fill loc (Some o) rest
          in
          fill f.fde_start None program)
        fdes;
      { base; offsets }
    end

  let cfa_offset t ~pc =
    let i = pc - t.base in
    if i < 0 || i >= Array.length t.offsets then None
    else begin
      let o = t.offsets.(i) in
      if o < 0 then None else Some o
    end

  let size_words t = Array.length t.offsets
end
