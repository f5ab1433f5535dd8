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

let meth_of_string = function
  | "GET" -> GET
  | "HEAD" -> HEAD
  | "POST" -> POST
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | "OPTIONS" -> OPTIONS
  | s -> Other s

(* Byte-range helpers.  The parser works on indices into its input and
   copies out only the fields it returns. *)

let sub s lo hi = if lo = hi then "" else String.sub s lo (hi - lo)

let rec index_in s c lo hi = if lo >= hi then -1 else if s.[lo] = c then lo else index_in s c (lo + 1) hi

let rec has_upper s lo hi =
  lo < hi && match s.[lo] with 'A' .. 'Z' -> true | _ -> has_upper s (lo + 1) hi

let rec same_bytes s i lit j =
  j = String.length lit || (s.[i] = lit.[j] && same_bytes s (i + 1) lit (j + 1))

(* Whether [s] holds [lit] at [lo, hi). *)
let sub_is s lo hi lit = hi - lo = String.length lit && same_bytes s lo lit 0

(* [String.lowercase_ascii] of [lo, hi), copied once. *)
let sub_lower s lo hi =
  if has_upper s lo hi then String.init (hi - lo) (fun i -> Char.lowercase_ascii s.[lo + i])
  else sub s lo hi

let header req name =
  let name = if has_upper name 0 (String.length name) then String.lowercase_ascii name else name in
  List.assoc_opt name req.headers

let keep_alive req =
  match (req.version, header req "connection") with
  | _, Some c when String.lowercase_ascii c = "close" -> false
  | "HTTP/1.0", Some c when String.lowercase_ascii c = "keep-alive" -> true
  | "HTTP/1.0", _ -> false
  | _, _ -> true

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* The index of the first "\r\n" at or after [i], or -1. *)
let rec find_crlf s i =
  if i + 1 >= String.length s then -1
  else if s.[i] = '\r' && s.[i + 1] = '\n' then i
  else find_crlf s (i + 1)

(* The bytes [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_left s lo hi = if lo < hi && is_space s.[lo] then trim_left s (lo + 1) hi else lo

let rec trim_right s lo hi = if hi > lo && is_space s.[hi - 1] then trim_right s lo (hi - 1) else hi

(* The header lines from [pos], prepended to [acc]: (headers, offset
   just past the blank line). *)
let rec parse_headers s acc pos =
  let eol = find_crlf s pos in
  if eol < 0 then Error "incomplete headers"
  else if eol = pos then Ok (List.rev acc, pos + 2)
  else begin
    let colon = index_in s ':' pos eol in
    if colon < 0 then Error (Printf.sprintf "malformed header %S" (sub s pos eol))
    else begin
      let n0 = trim_left s pos colon in
      let n1 = trim_right s n0 colon in
      if n0 = n1 then Error "empty header name"
      else begin
        let v0 = trim_left s (colon + 1) eol in
        let value = sub s v0 (trim_right s v0 eol) in
        parse_headers s ((sub_lower s n0 n1, value) :: acc) (eol + 2)
      end
    end
  end

(* The value of a [Content-Length], which RFC 7230 defines as 1*DIGIT:
   -1 when [v] is empty, holds any other byte (a sign, "0x", "_") or
   does not fit an int. *)
let rec digits_value v i acc =
  if i = String.length v then acc
  else
    let c = v.[i] in
    let d = Char.code c - Char.code '0' in
    if d < 0 || d > 9 || acc > (max_int - d) / 10 then -1
    else digits_value v (i + 1) ((10 * acc) + d)

(* Every [Content-Length] must be valid, and all must be the same text:
   a receiver that took the first of two differing values would frame
   the body differently from one that took the last, which is how
   requests are smuggled (RFC 7230 §3.3.2).  Values are compared as
   text, so "3" and "03" conflict.  Header values arrive trimmed.
   [first] is the first value seen, "" before any (no valid value is
   empty). *)
let rec content_length_from n first = function
  | [] -> Ok n
  | ("content-length", v) :: rest ->
      let m = if v = "" then -1 else digits_value v 0 0 in
      if m < 0 then Error (Printf.sprintf "bad content-length %S" v)
      else if first = "" then content_length_from m v rest
      else if not (String.equal v first) then
        Error (Printf.sprintf "conflicting content-length %S and %S" first v)
      else content_length_from n first rest
  | _ :: rest -> content_length_from n first rest

let content_length headers = content_length_from 0 "" headers

(* The headers and the [Content-Length] body from [start]; [k] builds
   the message from them. *)
let parse_rest s start k =
  match parse_headers s [] start with
  | Error e -> Error e
  | Ok (headers, body_start) -> (
      match content_length headers with
      | Error e -> Error e
      | Ok len ->
          if String.length s < body_start + len then Error "incomplete body"
          else Ok (k headers (sub s body_start (body_start + len)), body_start + len))

(* Start-line tokens are separated by runs of spaces, and only spaces. *)
let rec skip_spaces s i hi = if i < hi && s.[i] = ' ' then skip_spaces s (i + 1) hi else i

let rec token_end s i hi = if i < hi && s.[i] <> ' ' then token_end s (i + 1) hi else i

(* The version at [lo, hi) if supported, shared rather than copied. *)
let version_at s lo hi =
  if sub_is s lo hi "HTTP/1.1" then Some "HTTP/1.1"
  else if sub_is s lo hi "HTTP/1.0" then Some "HTTP/1.0"
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
    if v0 = v1 || skip_spaces s v1 eol < eol then
      Error (Printf.sprintf "malformed request line %S" (sub s 0 eol))
    else
      match version_at s v0 v1 with
      | None -> Error (Printf.sprintf "unsupported version %S" (sub s v0 v1))
      | Some version ->
          let meth = meth_of_string (sub s m0 m1) in
          let target = sub s t0 t1 in
          parse_rest s (eol + 2) (fun headers body -> { meth; target; version; headers; body })
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

(* "a b c\r\n", the header lines, a blank line, the body. *)
let serialise a b c headers body =
  let len =
    headers_length
      (String.length a + String.length b + String.length c + 6 + String.length body)
      headers
  in
  let buf = Bytes.create len in
  let pos = put buf (put_char buf (put buf (put_char buf (put buf 0 a) ' ') b) ' ') c in
  let pos = put_crlf buf (put_headers buf (put_crlf buf pos) headers) in
  ignore (put buf pos body);
  Bytes.unsafe_to_string buf

let format_request req =
  (* Header names are case-insensitive (RFC 7230 §3.2): a caller header
     spelled "Content-Length" must suppress the synthesised one. *)
  let has_content_length =
    List.exists
      (fun (name, _) -> String.lowercase_ascii name = "content-length")
      req.headers
  in
  let headers =
    if has_content_length || req.body = "" then req.headers
    else req.headers @ [ ("content-length", string_of_int (String.length req.body)) ]
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

let response ?(headers = []) ~status body =
  {
    status;
    reason = reason_phrase status;
    resp_headers = headers @ [ ("content-length", string_of_int (String.length body)) ];
    resp_body = body;
  }

let ok body = response ~status:200 body

let not_found = response ~status:404 "not found"

let bad_request msg = response ~status:400 msg

let format_response r =
  serialise "HTTP/1.1" (string_of_int r.status) r.reason r.resp_headers r.resp_body

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
        match int_of_string_opt (sub s c0 c1) with
        | None -> Error (Printf.sprintf "bad status %S" (sub s c0 c1))
        | Some status ->
            let reason = reason_at s (skip_spaces s c1 eol) eol in
            parse_rest s (eol + 2) (fun resp_headers resp_body ->
                { status; reason; resp_headers; resp_body }))
    | _ -> Error (Printf.sprintf "malformed status line %S" (sub s 0 eol))
  end
