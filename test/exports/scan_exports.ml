(* Checks that every value exported by lib/*/*.mli has a client.

   A value counts as used when its name appears as a word in some .ml
   file under lib/, bin/, bench/, perfbench/ or examples/ other than the
   module's own implementation.  Comments and string literals are not
   read, so a mention in prose is no use.  Every unused value must be
   listed in test/exports/allowlist as [Module.value  client], where
   the client is the test file that names it or, for the few values
   kept without one, the reason they stay.  The check fails, naming the
   value, on an unused export missing from the allowlist, on an
   allowlisted value that is used again or gone, and on a test client
   that does not name its value.

   The check is a word match, not name resolution: a value whose name is
   also used for something else elsewhere passes unseen.  A record field
   after a dot ([t.free_slots]) and a record label ([free_slots : ...],
   [{ free_slots = ... }]) are not read as words.  Operators
   ([val ( >>= )]) are skipped.  Run it from the root of the tree, with
   no arguments; [dune runtest] does. *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The identifiers and single punctuation characters of an OCaml source
   text, in order, with comments, strings and character literals
   dropped. *)
let tokens text =
  let n = String.length text in
  let out = ref [] in
  let rec skip_string i =
    if i >= n then n
    else
      match text.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}], starting just after the opening [{]. *)
  let quoted_string i =
    let j = ref i in
    while !j < n && (text.[!j] = '_' || (text.[!j] >= 'a' && text.[!j] <= 'z')) do
      incr j
    done;
    if !j < n && text.[!j] = '|' then begin
      let close = "|" ^ String.sub text i (!j - i) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub text !k m <> close do
        incr k
      done;
      Some (min n (!k + m))
    end
    else None
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if depth = 0 then i
    else if i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' then
      skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && text.[i] = '*' && text.[i + 1] = ')' then
      skip_comment (depth - 1) (i + 2)
    else if text.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      let c = text.[i] in
      if c = '(' && i + 1 < n && text.[i + 1] = '*' then go (skip_comment 1 (i + 2))
      else if c = '"' then go (skip_string (i + 1))
      else if c = '{' then
        match quoted_string (i + 1) with
        | Some j -> go j
        | None ->
            out := "{" :: !out;
            go (i + 1)
      else if c = '\'' then
        if i + 1 < n && text.[i + 1] = '\\' then
          go (try String.index_from text (i + 2) '\'' + 1 with Not_found -> n)
        else if i + 2 < n && text.[i + 2] = '\'' then go (i + 3)
        else go (i + 1)
      else if is_ident_start c then begin
        let j = ref (i + 1) in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        out := String.sub text i (!j - i) :: !out;
        go !j
      end
      else if c >= '0' && c <= '9' then begin
        let j = ref (i + 1) in
        while !j < n && (is_ident_char text.[!j] || text.[!j] = '.') do
          incr j
        done;
        go !j
      end
      else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1)
      else begin
        out := String.make 1 c :: !out;
        go (i + 1)
      end
  in
  go 0;
  List.rev !out

(* The exported values of an interface, each as its path of enclosing
   signatures ([["Ctl"; "arm"]] inside [module Ctl : sig ... end]). *)
let exported_values text =
  let rec go stack pending acc = function
    | "val" :: name :: rest when is_ident_start name.[0] ->
        let path = List.filter (fun s -> s <> "") (List.rev (name :: stack)) in
        go stack pending (path :: acc) rest
    | "module" :: ("type" | "rec") :: name :: rest | "module" :: name :: rest ->
        go stack (Some name) acc rest
    | "sig" :: rest ->
        let frame = Option.value pending ~default:"" in
        go (frame :: stack) None acc rest
    | ("struct" | "object" | "begin") :: rest -> go ("" :: stack) pending acc rest
    | "end" :: rest -> go (match stack with [] -> [] | _ :: s -> s) pending acc rest
    | _ :: rest -> go stack pending acc rest
    | [] -> List.rev acc
  in
  go [] None [] (tokens text)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name = "_build" then []
         else if Sys.is_directory path then files_under path
         else [ path ])

let is_upper w = w.[0] >= 'A' && w.[0] <= 'Z'

(* The words of a token list that can name a value.  Left out: a field
   reached through a dot after a lower-case identifier or [)]
   ([t.free_slots], [(f x).seg], [f.Fiber.seg]), and a record label
   inside braces, in a type or an expression ([free_slots : Ivec.t;],
   [{ t with head = c }], [{ Fiber.seg = s }]). *)
let value_words toks =
  let a = Array.of_list toks in
  let n = Array.length a in
  let ident i = i >= 0 && i < n && is_ident_start a.(i).[0] in
  let field = Array.make n false in
  for i = 2 to n - 1 do
    if ident i && a.(i - 1) = "."
       && ((ident (i - 2) && not (is_upper a.(i - 2))) || a.(i - 2) = ")" || field.(i - 2))
    then field.(i) <- true
  done;
  (* [in_braces.(i)]: the innermost bracket open at token [i] is [{]. *)
  let in_braces = Array.make n false in
  let stack = ref [] in
  for i = 0 to n - 1 do
    (match a.(i) with
    | "{" | "(" | "[" -> stack := a.(i) :: !stack
    | "}" | ")" | "]" -> stack := (match !stack with [] -> [] | _ :: s -> s)
    | _ -> ());
    in_braces.(i) <- !stack <> [] && List.hd !stack = "{"
  done;
  let label i =
    ident i && (not (is_upper a.(i))) && in_braces.(i) && i + 1 < n
    && (a.(i + 1) = "=" || a.(i + 1) = ":")
    &&
    let j = ref (i - 1) in
    while !j >= 1 && a.(!j) = "." && ident (!j - 1) && is_upper a.(!j - 1) do
      j := !j - 2
    done;
    if !j >= 0 && a.(!j) = "mutable" then decr j;
    !j >= 0 && (a.(!j) = "{" || a.(!j) = ";" || a.(!j) = "with")
  in
  List.filteri (fun i _ -> not (field.(i) || label i)) toks

let words_of path =
  let tbl = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace tbl w ()) (value_words (tokens (read_file path)));
  tbl

(* The allowlist: one [Module.value  client] line per entry; blank
   lines and lines starting with [#] are commentary. *)
let read_allowlist path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
               let client = String.sub line i (String.length line - i) in
               Some (String.sub line 0 i, String.trim client))

let () =
  let ml_files dirs =
    List.concat_map files_under dirs
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.map (fun p -> (p, words_of p))
  in
  let production = ml_files [ "lib"; "bin"; "bench"; "perfbench"; "examples" ] in
  let tests =
    List.filter (fun (p, _) -> Filename.dirname p <> "test/exports") (ml_files [ "test" ])
  in
  let names (_, words) w = Hashtbl.mem words w in
  let unused =
    files_under "lib"
    |> List.filter (fun p ->
           Filename.check_suffix p ".mli" && Filename.dirname (Filename.dirname p) = "lib")
    |> List.concat_map (fun mli ->
           let base = Filename.chop_suffix mli ".mli" in
           let own = base ^ ".ml" in
           let modname = String.capitalize_ascii (Filename.basename base) in
           exported_values (read_file mli)
           |> List.filter_map (fun path ->
                  let value = List.nth path (List.length path - 1) in
                  if List.exists (fun ((p, _) as f) -> p <> own && names f value) production
                  then None
                  else Some (String.concat "." (modname :: path), value)))
    |> List.sort_uniq compare
  in
  let allowlist = read_allowlist "test/exports/allowlist" in
  let errors = ref 0 in
  let fail fmt =
    incr errors;
    Printf.printf fmt
  in
  List.iter
    (fun (name, value) ->
      match List.assoc_opt name allowlist with
      | None ->
          let client =
            match List.find_opt (fun f -> names f value) tests with
            | Some (p, _) -> p
            | None -> "none"
          in
          fail "unused export %s (test client: %s): use it, delete it, or allowlist it\n"
            name client
      | Some "" -> fail "allowlisted export %s names no client\n" name
      | Some client when Filename.check_suffix client ".ml" ->
          if not (List.exists (fun ((p, _) as f) -> p = client && names f value) tests) then
            fail "allowlisted export %s: its client %s does not name %s\n" name client value
      | Some _ -> ())
    unused;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name unused) then
        fail "allowlisted export %s is used in production code or gone: drop its line\n" name)
    allowlist;
  if !errors > 0 then begin
    Printf.printf "%d problem(s) with test/exports/allowlist\n" !errors;
    exit 1
  end
