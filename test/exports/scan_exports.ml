(* Checks that every value exported by lib/*/*.mli has a client, and
   that every optional parameter of one has a caller that sets it.

   A value counts as used when its name appears as a word in some .ml
   file under lib/, bin/, bench/, perfbench/ or examples/ other than the
   module's own implementation.  A value of a submodule ([arm] in
   [module Ctl : sig ... end] of sched.mli) counts only where it appears
   qualified: [Ctl.arm], [Sched.Ctl.arm], or [X.arm] after
   [module X = Sched.Ctl].  Comments and string literals are not read,
   so a mention in prose is no use.  Every unused value must be
   listed in test/exports/allowlist as [Module.value  client], where
   the client is the test file that names it or, for the few values
   kept without one, the reason they stay.  The check fails, naming the
   value, on an unused export missing from the allowlist, on an
   allowlisted value that is used again or gone, and on a test client
   that does not name its value.

   An optional parameter [?lab] of an exported [M.f] counts as set when
   some production file other than the module's own implementation
   applies [M.f] (through [M] or a module alias of it) with [~lab] or
   [?lab], or passes [M.f] on unapplied, as a function value whose
   caller may set anything.  An unset parameter must be listed as
   [Module.f ?lab  client], with the same rules for its client, which
   must name [lab].

   For a top-level value (and a [val] of a [module type], which its
   implementations answer to under any name) the export check is a
   word match, not name resolution: a value whose name is also used for
   something else elsewhere passes unseen.  A record field
   after a dot ([t.free_slots]) and a record label ([free_slots : ...],
   [{ free_slots = ... }]) are not read as words.  Operators
   ([val ( >>= )]) are skipped.  Run it from the root of the tree, with
   no arguments; [dune runtest] does. *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The identifiers and single punctuation characters of an OCaml source
   text, in order, with comments dropped and each string, character or
   number literal read as the one token ["\""]. *)
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
      let literal j =
        out := "\"" :: !out;
        go j
      in
      if c = '(' && i + 1 < n && text.[i + 1] = '*' then go (skip_comment 1 (i + 2))
      else if c = '"' then literal (skip_string (i + 1))
      else if c = '{' then
        match quoted_string (i + 1) with
        | Some j -> literal j
        | None ->
            out := "{" :: !out;
            go (i + 1)
      else if c = '\'' then
        if i + 1 < n && text.[i + 1] = '\\' then
          literal (try String.index_from text (i + 2) '\'' + 1 with Not_found -> n)
        else if i + 2 < n && text.[i + 2] = '\'' then literal (i + 3)
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
        literal !j
      end
      else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1)
      else begin
        out := String.make 1 c :: !out;
        go (i + 1)
      end
  in
  go 0;
  List.rev !out

(* The words that start a signature item, ending the type of a [val]. *)
let item_start = [ "val"; "end"; "type"; "module"; "exception"; "external"; "include"; "open" ]

(* The optional labels of a value's type, at the top level of its
   arrows: [?config] in [?config:Config.t -> t], not [?pre] in
   [(?pre:(unit -> unit) -> string) -> t]. *)
let rec optional_labels depth acc = function
  | w :: _ when depth = 0 && List.mem w item_start -> List.rev acc
  | ("(" | "[" | "{") :: rest -> optional_labels (depth + 1) acc rest
  | (")" | "]" | "}") :: rest -> optional_labels (depth - 1) acc rest
  | "?" :: lab :: ":" :: rest when depth = 0 -> optional_labels depth (lab :: acc) rest
  | _ :: rest -> optional_labels depth acc rest
  | [] -> List.rev acc

(* The exported values of an interface, each as its path of enclosing
   signatures ([["Ctl"; "arm"]] inside [module Ctl : sig ... end]),
   whether it lies inside a [module type], and its optional labels.
   A frame of the stack is a signature's name and whether it is a
   module type's. *)
let exported_values text =
  let rec go stack pending acc = function
    | "val" :: name :: rest when is_ident_start name.[0] ->
        let path = List.filter (fun s -> s <> "") (List.rev (name :: List.map fst stack)) in
        let in_type = List.exists snd stack in
        go stack pending ((path, in_type, optional_labels 0 [] rest) :: acc) rest
    | "module" :: "type" :: name :: rest -> go stack (Some (name, true)) acc rest
    | "module" :: "rec" :: name :: rest | "module" :: name :: rest ->
        go stack (Some (name, false)) acc rest
    | "sig" :: rest ->
        let frame = Option.value pending ~default:("", false) in
        go (frame :: stack) None acc rest
    | ("struct" | "object" | "begin") :: rest -> go (("", false) :: stack) pending acc rest
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

(* The words that end the arguments of an application. *)
let application_end =
  [ ";"; ","; "="; "|"; "@"; "<"; ">"; "in"; "let"; "and"; "then"; "else"; "with"; "do";
    "done"; "end"; "begin"; "fun"; "function"; "match"; "if"; "-" ]

(* How each [M.f] in a token list is applied: [Some labels] for the
   labels it is given, [None] where it is passed on unapplied.  [M] is
   resolved through the file's [module X = A.B.M] aliases. *)
let applications toks =
  let a = Array.of_list toks in
  let n = Array.length a in
  let ident i = i >= 0 && i < n && is_ident_start a.(i).[0] in
  let aliases = Hashtbl.create 8 in
  let rec path_end m i =
    if i + 1 < n && a.(i) = "." && ident (i + 1) && is_upper a.(i + 1) then
      path_end a.(i + 1) (i + 2)
    else m
  in
  for i = 0 to n - 4 do
    if a.(i) = "module" && ident (i + 1) && is_upper a.(i + 1) && a.(i + 2) = "=" && ident (i + 3)
       && is_upper a.(i + 3)
    then Hashtbl.replace aliases a.(i + 1) (path_end a.(i + 3) (i + 4))
  done;
  let rec labels depth acc j =
    if j >= n then Some acc
    else
      match a.(j) with
      | "(" | "[" | "{" -> labels (depth + 1) acc (j + 1)
      | ")" | "]" | "}" -> if depth = 0 then Some acc else labels (depth - 1) acc (j + 1)
      | ("~" | "?") when depth = 0 && ident (j + 1) -> labels depth (a.(j + 1) :: acc) (j + 2)
      | w when depth = 0 && List.mem w application_end -> Some acc
      | _ -> labels depth acc (j + 1)
  in
  let out = Hashtbl.create 64 in
  for i = 2 to n - 1 do
    if ident i && (not (is_upper a.(i))) && a.(i - 1) = "." && ident (i - 2) && is_upper a.(i - 2)
    then begin
      let m = Option.value (Hashtbl.find_opt aliases a.(i - 2)) ~default:a.(i - 2) in
      let next = if i + 1 < n then a.(i + 1) else ";" in
      let applied =
        if List.mem next application_end || List.mem next [ ")"; "]"; "}" ] then None
        else labels 0 [] (i + 1)
      in
      Hashtbl.add out (m, a.(i)) applied
    end
  done;
  out

(* [Some labels] lists the labels the file's applications of [key] pass;
   [None] means some use passes the value on unapplied. *)
let set_labels apps key =
  List.fold_left
    (fun acc applied ->
      match (acc, applied) with
      | None, _ | _, None -> None
      | Some l, Some l' -> Some (l' @ l))
    (Some []) (Hashtbl.find_all apps key)

let words_of path =
  let tbl = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace tbl w ()) (value_words (tokens (read_file path)));
  tbl

(* The allowlist: one [Module.value  client] or [Module.value ?label
   client] line per entry; blank lines and lines starting with [#] are
   commentary. *)
let read_allowlist path =
  let split line =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i -> (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
  in
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           let name, rest = split line in
           if rest <> "" && rest.[0] = '?' then
             let label, client = split rest in
             Some (name ^ " " ^ label, client)
           else Some (name, rest))

let () =
  let ml_files dirs =
    List.concat_map files_under dirs
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.map (fun p -> (p, words_of p))
  in
  let production = ml_files [ "lib"; "bin"; "bench"; "perfbench"; "examples" ] in
  let production_apps =
    List.map (fun (p, _) -> (p, applications (tokens (read_file p)))) production
  in
  let tests =
    List.filter (fun (p, _) -> Filename.dirname p <> "test/exports") (ml_files [ "test" ])
  in
  let names (_, words) w = Hashtbl.mem words w in
  (* Each unused export as [(name, value)] and each unset optional
     parameter as [("M.f ?lab", lab)]: the allowlist key and the word
     its test client must name. *)
  let unused =
    files_under "lib"
    |> List.filter (fun p ->
           Filename.check_suffix p ".mli" && Filename.dirname (Filename.dirname p) = "lib")
    |> List.concat_map (fun mli ->
           let base = Filename.chop_suffix mli ".mli" in
           let own = base ^ ".ml" in
           let modname = String.capitalize_ascii (Filename.basename base) in
           exported_values (read_file mli)
           |> List.concat_map (fun (path, in_type, optional) ->
                  let value = List.nth path (List.length path - 1) in
                  let name = String.concat "." (modname :: path) in
                  let m = List.nth (modname :: path) (List.length path - 1) in
                  let set =
                    List.filter_map
                      (fun (p, apps) -> if p = own then None else Some (set_labels apps (m, value)))
                      production_apps
                  in
                  let unset =
                    if List.mem None set then []
                    else
                      let set = List.concat_map Option.get set in
                      List.filter_map
                        (fun lab ->
                          if List.mem lab set then None else Some (name ^ " ?" ^ lab, lab))
                        optional
                  in
                  let qualified = List.length path > 1 && not in_type in
                  let uses ((p, _) as f) (_, apps) =
                    p <> own
                    && if qualified then Hashtbl.mem apps (m, value) else names f value
                  in
                  if List.exists2 uses production production_apps then unset
                  else (name, value) :: unset))
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
          if String.contains name '?' then
            fail "unset option %s (test client: %s): set it, delete it, or allowlist it\n"
              name client
          else
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
        fail "allowlisted %s is used in production code or gone: drop its line\n" name)
    allowlist;
  if !errors > 0 then begin
    Printf.printf "%d problem(s) with test/exports/allowlist\n" !errors;
    exit 1
  end
