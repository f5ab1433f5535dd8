type t = { nfa : Nfa.t }

let of_string src = { nfa = Nfa.compile (Parse.parse_exn src) }

let find t ?(start = 0) s =
  let n = String.length s in
  if start < 0 || start > n then invalid_arg "Engine.find: start out of bounds";
  let rec scan pos =
    if pos > n then None
    else if pos < n && not (Nfa.can_start t.nfa s.[pos] || Nfa.nullable t.nfa) then
      scan (pos + 1)
    else begin
      match Nfa.match_at t.nfa s pos with
      | Some stop -> Some (pos, stop - pos)
      | None -> scan (pos + 1)
    end
  in
  scan start

let is_match t s = find t s <> None

let fold_matches t s f acc =
  let n = String.length s in
  let rec go pos acc =
    if pos > n then acc
    else begin
      match find t ~start:pos s with
      | None -> acc
      | Some (off, len) ->
          let acc = f acc off len in
          (* Zero-width matches must still make progress. *)
          go (if len = 0 then off + 1 else off + len) acc
    end
  in
  go 0 acc

let count t s = fold_matches t s (fun acc _ _ -> acc + 1) 0

let replace_all t ~by s =
  let buf = Buffer.create (String.length s) in
  let last =
    fold_matches t s
      (fun last off len ->
        Buffer.add_substring buf s last (off - last);
        Buffer.add_string buf by;
        off + len)
      0
  in
  Buffer.add_substring buf s last (String.length s - last);
  Buffer.contents buf

let split_on t s =
  let pieces, last =
    fold_matches t s
      (fun (pieces, last) off len -> (String.sub s last (off - last) :: pieces, off + len))
      ([], 0)
  in
  List.rev (String.sub s last (String.length s - last) :: pieces)
