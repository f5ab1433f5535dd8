type pred =
  | P_char of char
  | P_any
  | P_class of bool * (char * char) list

type inst =
  | Consume of pred * int
  | Split of int * int
  | Jmp of int
  | Accept

type t = {
  prog : inst array;
  start : int;
  first_set : bool array;  (* indexed by byte: can a match start with it? *)
  nullable : bool;
}

let pred_matches pred c =
  match pred with
  | P_char x -> c = x
  | P_any -> c <> '\n'
  | P_class (negated, ranges) -> Syntax.class_mem ~negated ~ranges c

(* Emit instructions into [code]; every fragment ends by jumping to the
   continuation address passed in. *)
let compile_syntax re =
  let code = Retrofit_util.Vec.create () in
  let emit i =
    Retrofit_util.Vec.push code i;
    Retrofit_util.Vec.length code - 1
  in
  let patch addr i = Retrofit_util.Vec.set code addr i in
  (* [go re k] compiles [re] with continuation address [k], returning the
     fragment's entry address.  Compilation proceeds right-to-left so that
     continuations are always known. *)
  let rec go re k =
    match re with
    | Syntax.Empty -> k
    | Syntax.Char c -> emit (Consume (P_char c, k))
    | Syntax.Any -> emit (Consume (P_any, k))
    | Syntax.Class { negated; ranges } -> emit (Consume (P_class (negated, ranges), k))
    | Syntax.Seq (a, b) ->
        let entry_b = go b k in
        go a entry_b
    | Syntax.Alt (a, b) ->
        let entry_a = go a k in
        let entry_b = go b k in
        emit (Split (entry_a, entry_b))
    | Syntax.Star a ->
        let split = emit (Jmp 0) (* placeholder *) in
        let entry_a = go a split in
        patch split (Split (entry_a, k));
        split
    | Syntax.Plus a ->
        let split = emit (Jmp 0) (* placeholder *) in
        let entry_a = go a split in
        patch split (Split (entry_a, k));
        entry_a
    | Syntax.Opt a ->
        let entry_a = go a k in
        emit (Split (entry_a, k))
  in
  let accept = emit Accept in
  let start = go re accept in
  (Retrofit_util.Vec.to_array code, start)

(* Epsilon-closure insertion of [addr] into the thread list, using a
   generation stamp to deduplicate. *)
let rec add_thread prog stamps gen list addr =
  if stamps.(addr) <> gen then begin
    stamps.(addr) <- gen;
    match prog.(addr) with
    | Jmp k -> add_thread prog stamps gen list k
    | Split (a, b) ->
        add_thread prog stamps gen list a;
        add_thread prog stamps gen list b
    | Consume _ | Accept -> Retrofit_util.Vec.push list addr
  end

let compute_first prog start =
  let n = Array.length prog in
  let stamps = Array.make n (-1) in
  let threads = Retrofit_util.Vec.create () in
  add_thread prog stamps 0 threads start;
  let first = Array.make 256 false in
  let nullable = ref false in
  Retrofit_util.Vec.iter
    (fun addr ->
      match prog.(addr) with
      | Accept -> nullable := true
      | Consume (pred, _) ->
          for b = 0 to 255 do
            if (not first.(b)) && pred_matches pred (Char.chr b) then first.(b) <- true
          done
      | Jmp _ | Split _ -> assert false)
    threads;
  (first, !nullable)

let compile re =
  let prog, start = compile_syntax re in
  let first_set, nullable = compute_first prog start in
  { prog; start; first_set; nullable }


let can_start t c = t.first_set.(Char.code c)

let nullable t = t.nullable

let match_at t s pos =
  let prog = t.prog in
  let n = String.length s in
  if pos < 0 || pos > n then invalid_arg "Nfa.match_at: position out of bounds";
  let stamps = Array.make (Array.length prog) (-1) in
  let current = ref (Retrofit_util.Vec.create ()) in
  let next = ref (Retrofit_util.Vec.create ()) in
  let gen = ref 0 in
  add_thread prog stamps !gen !current t.start;
  let last_accept = ref None in
  let i = ref pos in
  let running = ref true in
  while !running do
    (* Record an accept at the current offset if any thread reached it. *)
    if Retrofit_util.Vec.exists (fun addr -> prog.(addr) = Accept) !current then
      last_accept := Some !i;
    if !i >= n || Retrofit_util.Vec.is_empty !current then running := false
    else begin
      let c = s.[!i] in
      incr gen;
      Retrofit_util.Vec.clear !next;
      Retrofit_util.Vec.iter
        (fun addr ->
          match prog.(addr) with
          | Consume (pred, k) when pred_matches pred c ->
              add_thread prog stamps !gen !next k
          | _ -> ())
        !current;
      let tmp = !current in
      current := !next;
      next := tmp;
      incr i
    end
  done;
  !last_accept
