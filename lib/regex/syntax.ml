type t =
  | Empty
  | Char of char
  | Any
  | Class of { negated : bool; ranges : (char * char) list }
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let rec equal a b =
  match (a, b) with
  | Empty, Empty | Any, Any -> true
  | Char c, Char d -> c = d
  | Class a, Class b -> a.negated = b.negated && a.ranges = b.ranges
  | Seq (a1, a2), Seq (b1, b2) | Alt (a1, a2), Alt (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | Star a, Star b | Plus a, Plus b | Opt a, Opt b -> equal a b
  | _ -> false

let is_meta c = String.contains "()[]|*+?.\\-^" c

let escape_char buf c =
  if is_meta c then Buffer.add_char buf '\\';
  Buffer.add_char buf c

(* Precedence levels: alternation 0, concatenation 1, repetition 2,
   atoms 3.  Parenthesise when printing a lower level inside a higher. *)
let rec emit buf prec re =
  let paren p body =
    if p < prec then begin
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')'
    end
    else body ()
  in
  match re with
  | Empty -> if prec > 0 then Buffer.add_string buf "()"
  | Char c -> escape_char buf c
  | Any -> Buffer.add_char buf '.'
  | Class { negated; ranges } ->
      Buffer.add_char buf '[';
      if negated then Buffer.add_char buf '^';
      List.iter
        (fun (lo, hi) ->
          if lo = hi then escape_char buf lo
          else begin
            escape_char buf lo;
            Buffer.add_char buf '-';
            escape_char buf hi
          end)
        ranges;
      Buffer.add_char buf ']'
  | Seq (a, b) ->
      (* concatenation parses left-nested, so a right-nested child must
         be parenthesised to survive a print/parse roundtrip *)
      paren 1 (fun () ->
          emit buf 1 a;
          emit buf 2 b)
  | Alt (a, b) ->
      (* alternation parses right-nested; parenthesise the left child *)
      paren 0 (fun () ->
          emit buf 1 a;
          Buffer.add_char buf '|';
          emit buf 0 b)
  | Star a ->
      paren 2 (fun () ->
          emit buf 3 a;
          Buffer.add_char buf '*')
  | Plus a ->
      paren 2 (fun () ->
          emit buf 3 a;
          Buffer.add_char buf '+')
  | Opt a ->
      paren 2 (fun () ->
          emit buf 3 a;
          Buffer.add_char buf '?')

let to_string re =
  let buf = Buffer.create 32 in
  emit buf 0 re;
  Buffer.contents buf

let class_mem ~negated ~ranges c =
  let inside = List.exists (fun (lo, hi) -> lo <= c && c <= hi) ranges in
  if negated then not inside else inside
