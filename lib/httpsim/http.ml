type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | Other of string

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let meth_to_string = function
  | GET -> "GET"
  | HEAD -> "HEAD"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | OPTIONS -> "OPTIONS"
  | Other s -> s

(* Byte-range helpers.  The parser works on indices into its input and
   copies out only the fields it returns. *)

let sub s lo hi = if lo = hi then "" else String.sub s lo (hi - lo)

(* [%S] of [lo, hi): the bytes escaped, in double quotes. *)
let quoted s lo hi = "\"" ^ String.escaped (sub s lo hi) ^ "\""

(* Whether [s] from [i + j] on is [lit] from [j] on, once lower-cased. *)
let rec lowered_at s i lit j =
  j = String.length lit || (Char.lowercase_ascii s.[i + j] = lit.[j] && lowered_at s i lit (j + 1))

(* [String.lowercase_ascii] of [lo, hi), lowered while it is copied. *)
let lower_copy s lo hi =
  let b = Bytes.create (hi - lo) in
  for i = lo to hi - 1 do
    Bytes.set b (i - lo) (Char.lowercase_ascii s.[i])
  done;
  Bytes.unsafe_to_string b

(* The method at [lo, hi), matched in place: only a method with no
   constructor of its own is copied.  A token of three to seven bytes
   fits an int: the word at [lo], masked to the token's length, is
   compared whole with each name (written little-endian).  The caller
   has found a target and an eight-byte version after the method, so
   eight bytes remain at [lo]. *)
let meth_at s lo hi =
  let len = hi - lo in
  if len < 3 || len > 7 then Other (sub s lo hi)
  else
    match Int64.to_int (String.get_int64_le s lo) land ((1 lsl (8 * len)) - 1) with
    | 0x54_4547 (* "GET" *) when len = 3 -> GET
    | 0x5453_4f50 (* "POST" *) when len = 4 -> POST
    | 0x4441_4548 (* "HEAD" *) when len = 4 -> HEAD
    | 0x54_5550 (* "PUT" *) when len = 3 -> PUT
    | 0x4554_454c_4544 (* "DELETE" *) when len = 6 -> DELETE
    | 0x53_4e4f_4954_504f (* "OPTIONS" *) when len = 7 -> OPTIONS
    | _ -> Other (sub s lo hi)

(* The names the simulated requests and replies carry: the load
   generator's three and [Content-Length].  A line that starts with one of
   them, in any case, and a colon gets the shared lower-case name,
   read in place; any other line gets "", and its name is found by a
   scan and copied.

   Where eight bytes remain, a name and its colon are one masked compare
   of a word, or two for a name longer than seven bytes (the second word
   ends at the colon): [(w lor fold) land keep = lit], where [fold] is
   0x20 at each byte where [lit] has a lower-case letter and 0
   elsewhere.  At a letter [l], [b lor 0x20 = l] exactly when
   [Char.lowercase_ascii b = l]; at a '-' or ':' the compare must stay
   exact, because '\r' lor 0x20 is '-' and 0x1a lor 0x20 is ':'.  A
   line nearer the end gets "": a complete head needs more bytes after
   any of these names ("host:\r\n\r\n" is nine), so such a line's name
   is never returned, and its scan finds the same bounds. *)
let known_name s pos =
  let n = String.length s in
  if pos + 8 > n then ""
  else
    let w = String.get_int64_le s pos in
    match s.[pos] with
    | 'h' | 'H' ->
        (* "host:" *)
        if Int64.equal (Int64.logand (Int64.logor w 0x20202020L) 0xff_ffff_ffffL) 0x3a_7473_6f68L
        then "host"
        else ""
    | 'x' | 'X' ->
        (* "x-conn:" *)
        if
          Int64.equal
            (Int64.logand (Int64.logor w 0x2020_2020_0020L) 0xff_ffff_ffff_ffffL)
            0x3a_6e6e_6f63_2d78L
        then "x-conn"
        else ""
    | 'u' | 'U' ->
        (* "user-age", then "r-agent:" *)
        if
          pos + 11 <= n
          && Int64.equal (Int64.logor w 0x2020_2000_2020_2020L) 0x6567_612d_7265_7375L
          && Int64.equal
               (Int64.logor (String.get_int64_le s (pos + 3)) 0x20_2020_2020_0020L)
               0x3a74_6e65_6761_2d72L
        then "user-agent"
        else ""
    | 'c' | 'C' ->
        (* "content-", then "-length:" *)
        if
          pos + 15 <= n
          && Int64.equal (Int64.logor w 0x20_2020_2020_2020L) 0x2d74_6e65_746e_6f63L
          && Int64.equal
               (Int64.logor (String.get_int64_le s (pos + 7)) 0x20_2020_2020_2000L)
               0x3a68_7467_6e65_6c2dL
        then "content-length"
        else ""
    | _ -> ""

(* Whether [name] lower-cased is [n], both [i] bytes in. *)
let rec lowers_to name n i =
  i = String.length n || (Char.lowercase_ascii name.[i] = n.[i] && lowers_to name n (i + 1))

let rec assoc_lowered name = function
  | [] -> None
  | (n, v) :: rest ->
      if String.length n = String.length name && lowers_to name n 0 then Some v
      else assoc_lowered name rest

let header req name = assoc_lowered name req.headers

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* The line scans read a word at a time where eight bytes remain
   ([String.get_int64_le]: the byte at [i] is the lowest).  A word
   holds a byte [c] exactly when [x], the word XOR [c] in every byte,
   holds a zero byte, which is when
   [(x - 0x0101..01) land lnot x land 0x8080..80] is not 0.  Each
   [Int64] stays let-bound in the loop that reads it, so the compiler
   keeps it unboxed; passed to a helper it would be boxed on every read.
   A word that holds a byte the scan stops at, and the last seven bytes,
   are read one byte at a time; then the words resume. *)

(* The index of the first "\r\n" at or after [i], or -1: words with
   no '\r' are skipped whole. *)
let find_crlf s i =
  let n = String.length s in
  let last = n - 1 in
  let i = ref i and found = ref (-1) in
  while !found < 0 && !i < last do
    if
      !i + 8 <= n
      &&
      let x = Int64.logxor (String.get_int64_le s !i) 0x0d0d_0d0d_0d0d_0d0dL in
      Int64.equal
        (Int64.logand
           (Int64.logand (Int64.sub x 0x0101_0101_0101_0101L) (Int64.lognot x))
           0x8080_8080_8080_8080L)
        0L
    then i := !i + 8
    else begin
      let stop = if !i + 8 < last then !i + 8 else last in
      while !i < stop && (s.[!i] <> '\r' || s.[!i + 1] <> '\n') do
        incr i
      done;
      if !i < stop then found := !i
    end
  done;
  !found

(* The index of the first ':' or "\r\n" at or after [i], or -1: a
   header line's name is read once, up to its colon, or to the end of
   a line that has none.  Words with neither ':' nor '\r' are skipped
   whole. *)
let colon_or_crlf s i =
  let n = String.length s in
  let last = n - 1 in
  let i = ref i and found = ref (-1) in
  while !found < 0 && !i < last do
    if
      !i + 8 <= n
      &&
      let w = String.get_int64_le s !i in
      let c = Int64.logxor w 0x3a3a_3a3a_3a3a_3a3aL in
      let r = Int64.logxor w 0x0d0d_0d0d_0d0d_0d0dL in
      Int64.equal
        (Int64.logand
           (Int64.logor
              (Int64.logand (Int64.sub c 0x0101_0101_0101_0101L) (Int64.lognot c))
              (Int64.logand (Int64.sub r 0x0101_0101_0101_0101L) (Int64.lognot r)))
           0x8080_8080_8080_8080L)
        0L
    then i := !i + 8
    else begin
      let stop = if !i + 8 < last then !i + 8 else last in
      while !i < stop && s.[!i] <> ':' && (s.[!i] <> '\r' || s.[!i + 1] <> '\n') do
        incr i
      done;
      if !i < stop then found := !i
    end
  done;
  !found

(* The bytes [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_left s lo hi = if lo < hi && is_space s.[lo] then trim_left s (lo + 1) hi else lo

let rec trim_right s lo hi = if hi > lo && is_space s.[hi - 1] then trim_right s lo (hi - 1) else hi

(* The value of a [Content-Length] at [i, hi), which RFC 7230 defines
   as 1*DIGIT: -1 when it holds any other byte (a sign, "0x", "_") or
   does not fit an int; callers reject an empty value first. *)
let rec digits_in s i hi acc =
  if i = hi then acc
  else
    let d = Char.code s.[i] - Char.code '0' in
    if d < 0 || d > 9 || acc > (max_int - d) / 10 then -1 else digits_in s (i + 1) hi ((10 * acc) + d)

(* Whether the [n] bytes at [i] and at [j] are equal. *)
let rec same_range s i j n = n = 0 || (s.[i] = s.[j] && same_range s (i + 1) (j + 1) (n - 1))

(* The header lines from [pos] and the [Content-Length] body after
   them, each line read once: its name up to the colon, then its value
   up to the "\r\n".  [add s known n0 n1 v0 v1 acc] folds in the header
   with its name at [n0, n1) ([known] when that is a [known_name],
   else "") and its value at [v0, v1), and [finish acc body_start
   body_end] makes the result.

   Every [Content-Length] must be valid, and all must be the same text:
   a receiver that took the first of two differing values would frame
   the body differently from one that took the last, which is how
   requests are smuggled (RFC 7230 §3.3.2).  Values are compared as
   text, so "3" and "03" conflict.  [len] is the value so far (0 when
   none), [f0, f1) the first valid value's bytes ([f0 = -1] before one)
   and [err] the first [Content-Length] error ("" for none), which a
   malformed header line further down overrides. *)
let rec scan_headers s ~add ~finish acc pos len f0 f1 err =
  let known = known_name s pos in
  let is_known = String.length known > 0 in
  let i = if is_known then pos + String.length known else colon_or_crlf s pos in
  if i < 0 then Error "incomplete headers"
  else if s.[i] <> ':' then
    if i > pos then Error ("malformed header " ^ quoted s pos i)
    else if String.length err > 0 then Error err
    else if len > String.length s - (pos + 2) then Error "incomplete body"
    else Ok (finish acc (pos + 2) (pos + 2 + len))
  else begin
    let eol = find_crlf s (i + 1) in
    if eol < 0 then Error "incomplete headers"
    else begin
      (* a known name is exactly [pos, i) *)
      let n0 = if is_known then pos else trim_left s pos i in
      let n1 = if is_known then i else trim_right s n0 i in
      if n0 = n1 then Error "empty header name"
      else begin
        let v0 = trim_left s (i + 1) eol in
        let v1 = trim_right s v0 eol in
        let acc = add s known n0 n1 v0 v1 acc in
        let next = eol + 2 in
        let content_length =
          if is_known then String.equal known "content-length"
          else n1 - n0 = 14 && lowered_at s n0 "content-length" 0
        in
        if String.length err > 0 || not content_length then
          scan_headers s ~add ~finish acc next len f0 f1 err
        else begin
          let m = if v0 = v1 then -1 else digits_in s v0 v1 0 in
          if m < 0 then
            scan_headers s ~add ~finish acc next len f0 f1 ("bad content-length " ^ quoted s v0 v1)
          else if f0 < 0 then scan_headers s ~add ~finish acc next m v0 v1 err
          else if v1 - v0 <> f1 - f0 || not (same_range s v0 f0 (v1 - v0)) then
            scan_headers s ~add ~finish acc next len f0 f1
              ("conflicting content-length " ^ quoted s f0 f1 ^ " and " ^ quoted s v0 v1)
          else scan_headers s ~add ~finish acc next len f0 f1 err
        end
      end
    end
  end

let add_header s known n0 n1 v0 v1 acc =
  let name = if String.length known > 0 then known else lower_copy s n0 n1 in
  (name, sub s v0 v1) :: acc

let headers_and_body acc body_start body_end = (List.rev acc, body_start, body_end)

(* The headers, in order, and the body's bounds, of the message whose
   header lines start at [pos]. *)
let parse_rest s pos =
  scan_headers s ~add:add_header ~finish:headers_and_body [] pos 0 (-1) (-1) ""

(* Start-line tokens are separated by runs of spaces, and only spaces. *)
let rec skip_spaces s i hi = if i < hi && s.[i] = ' ' then skip_spaces s (i + 1) hi else i

let rec token_end s i hi = if i < hi && s.[i] <> ' ' then token_end s (i + 1) hi else i

(* The target at [lo, hi): the root, which every simulated request
   asks for, shared; any other target copied. *)
let target_at s lo hi = if hi - lo = 1 && s.[lo] = '/' then "/" else sub s lo hi

(* The version at [lo, hi) if supported, shared rather than copied:
   one word, compared whole. *)
let version_at s lo hi =
  if hi - lo <> 8 then None
  else
    let w = String.get_int64_le s lo in
    if Int64.equal w 0x312e_312f_5054_5448L (* "HTTP/1.1" *) then Some "HTTP/1.1"
    else if Int64.equal w 0x302e_312f_5054_5448L (* "HTTP/1.0" *) then Some "HTTP/1.0"
    else None

let parse_request s =
  let eol = find_crlf s 0 in
  if eol < 0 then Error "incomplete request line"
  else begin
    let m0 = skip_spaces s 0 eol in
    let m1 = token_end s m0 eol in
    let t0 = skip_spaces s m1 eol in
    let t1 = token_end s t0 eol in
    let v0 = skip_spaces s t1 eol in
    let v1 = token_end s v0 eol in
    if v0 = v1 || skip_spaces s v1 eol < eol then Error ("malformed request line " ^ quoted s 0 eol)
    else
      match version_at s v0 v1 with
      | None -> Error ("unsupported version " ^ quoted s v0 v1)
      | Some version -> (
          match parse_rest s (eol + 2) with
          | Error e -> Error e
          | Ok (headers, b0, b1) ->
              let meth = meth_at s m0 m1 and target = target_at s t0 t1 in
              Ok ({ meth; target; version; headers; body = sub s b0 b1 }, b1))
  end

(* Serialisation writes each message into one buffer of exactly its
   size: each [put] returns the offset just past what it wrote. *)

let put buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let put_char buf pos c =
  Bytes.set buf pos c;
  pos + 1

let put_crlf buf pos = put_char buf (put_char buf pos '\r') '\n'

let rec headers_length n = function
  | [] -> n
  | (name, value) :: rest -> headers_length (n + String.length name + String.length value + 4) rest

let rec put_headers buf pos = function
  | [] -> pos
  | (name, value) :: rest ->
      put_headers buf (put_crlf buf (put buf (put buf (put buf pos name) ": ") value)) rest

(* The decimal digits of [n >= 0]. *)
let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)

(* Writes [n >= 0] in decimal with its last digit at [hi - 1]. *)
let rec put_digits buf hi n =
  Bytes.set buf (hi - 1) (Char.chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits buf (hi - 1) (n / 10)

(* [string_of_int n] for [n >= 0], without the C formatter. *)
let decimal n =
  let buf = Bytes.create (digit_count n) in
  put_digits buf (Bytes.length buf) n;
  Bytes.unsafe_to_string buf

(* The length of [string_of_int n], and [n] written at [pos] as it
   would print. *)
let int_length n = if n < 0 then String.length (string_of_int n) else digit_count n

let put_int buf pos n =
  if n < 0 then put buf pos (string_of_int n)
  else begin
    let hi = pos + digit_count n in
    put_digits buf hi n;
    hi
  end

(* The size of a message whose start line, without its "\r\n", is
   [line] bytes long. *)
let message_length line headers body = headers_length (line + 4 + String.length body) headers

(* The start line's "\r\n" at [pos], the header lines, a blank line,
   the body. *)
let put_message buf pos headers body =
  ignore (put buf (put_crlf buf (put_headers buf (put_crlf buf pos) headers)) body)

(* "a b c\r\n", the header lines, a blank line, the body. *)
let serialise a b c headers body =
  let buf =
    Bytes.create
      (message_length (String.length a + String.length b + String.length c + 2) headers body)
  in
  let pos = put buf (put_char buf (put buf (put_char buf (put buf 0 a) ' ') b) ' ') c in
  put_message buf pos headers body;
  Bytes.unsafe_to_string buf

let format_request req =
  (* Header names are case-insensitive (RFC 7230 §3.2): a caller header
     spelled "Content-Length" must suppress the synthesised one. *)
  let has_content_length =
    List.exists
      (fun (name, _) -> String.length name = 14 && lowers_to name "content-length" 0)
      req.headers
  in
  let headers =
    if has_content_length || req.body = "" then req.headers
    else req.headers @ [ ("content-length", decimal (String.length req.body)) ]
  in
  serialise (meth_to_string req.meth) req.target req.version headers req.body

(* ------------------------------------------------------------------ *)
(* Responses *)

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 301 -> "Moved Permanently"
  | 302 -> "Found"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | n -> Printf.sprintf "Status %d" n

let response ~status body =
  {
    status;
    reason = reason_phrase status;
    resp_headers = [ ("content-length", decimal (String.length body)) ];
    resp_body = body;
  }

let ok body = response ~status:200 body

let not_found = response ~status:404 "not found"

let bad_request msg = response ~status:400 msg

(* "HTTP/1.1 <status> <reason>", the status written in place. *)
let format_response r =
  let line = 10 + int_length r.status + String.length r.reason in
  let buf = Bytes.create (message_length line r.resp_headers r.resp_body) in
  let pos = put buf (put_char buf (put_int buf (put buf 0 "HTTP/1.1 ") r.status) ' ') r.reason in
  put_message buf pos r.resp_headers r.resp_body;
  Bytes.unsafe_to_string buf

(* The status code at [lo, hi), which RFC 9112 §4 defines as 3DIGIT,
   or -1: a sign, "0x", "_" or a fourth digit makes it a bad status. *)
let status_code s lo hi = if hi - lo = 3 then digits_in s lo hi 0 else -1

let rec trim_right_spaces s lo hi =
  if hi > lo && s.[hi - 1] = ' ' then trim_right_spaces s lo (hi - 1) else hi

(* Whether the byte at [i] is kept when runs of spaces collapse to
   one: all but the first space of a run are dropped.  [s.[i - 1]] is
   read only for a space, which is never the first byte of a range that
   starts past its leading spaces. *)
let kept s i = s.[i] <> ' ' || s.[i - 1] <> ' '

let rec kept_length s i hi n =
  if i >= hi then n else kept_length s (i + 1) hi (if kept s i then n + 1 else n)

let rec put_kept s i hi buf j =
  if i < hi then
    if kept s i then (Bytes.set buf j s.[i]; put_kept s (i + 1) hi buf (j + 1))
    else put_kept s (i + 1) hi buf j

(* The words of [lo, hi) joined by single spaces, copied once; [lo] is
   past any leading spaces. *)
let reason_at s lo hi =
  let hi = trim_right_spaces s lo hi in
  let buf = Bytes.create (kept_length s lo hi 0) in
  put_kept s lo hi buf 0;
  Bytes.unsafe_to_string buf

let parse_response s =
  let eol = find_crlf s 0 in
  if eol < 0 then Error "incomplete status line"
  else begin
    let v0 = skip_spaces s 0 eol in
    let v1 = token_end s v0 eol in
    let c0 = skip_spaces s v1 eol in
    let c1 = token_end s c0 eol in
    match version_at s v0 v1 with
    | Some _ when c0 < c1 -> (
        let status = status_code s c0 c1 in
        if status < 0 then Error ("bad status " ^ quoted s c0 c1)
        else
          let reason = reason_at s (skip_spaces s c1 eol) eol in
          match parse_rest s (eol + 2) with
          | Error e -> Error e
          | Ok (resp_headers, b0, b1) ->
              Ok ({ status; reason; resp_headers; resp_body = sub s b0 b1 }, b1))
    | _ -> Error ("malformed status line " ^ quoted s 0 eol)
  end

(* ------------------------------------------------------------------ *)
(* Status-only validation: the checks of [parse_response], on indices,
   with a copy only to build an error *)

let skip_header _ _ _ _ _ _ status = status

let status_only status _ _ = status

let response_status s =
  let eol = find_crlf s 0 in
  if eol < 0 then Error "incomplete status line"
  else begin
    let v0 = skip_spaces s 0 eol in
    let v1 = token_end s v0 eol in
    let c0 = skip_spaces s v1 eol in
    let c1 = token_end s c0 eol in
    match version_at s v0 v1 with
    | Some _ when c0 < c1 ->
        let status = status_code s c0 c1 in
        if status < 0 then Error ("bad status " ^ quoted s c0 c1)
        else scan_headers s ~add:skip_header ~finish:status_only status (eol + 2) 0 (-1) (-1) ""
    | _ -> Error ("malformed status line " ^ quoted s 0 eol)
  end
