(** HTTP/1.1 message parsing and serialisation.

    The web-server experiment (§6.3.4) uses httpaf for HTTP handling;
    this module is our substitute.  It implements enough of RFC 7230
    for the benchmark and the tests: request lines, header fields,
    [Content-Length] bodies and response serialisation. *)

type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | Other of string

type request = {
  meth : meth;
  target : string;
  version : string;  (** e.g. "HTTP/1.1" *)
  headers : (string * string) list;  (** names lower-cased, in order *)
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val meth_to_string : meth -> string

val header : request -> string -> string option
(** Case-insensitive lookup of the first matching header. *)

val parse_request : string -> (request * int, string) result
(** Parse one complete request from the front of the buffer, returning
    it with the number of bytes consumed (so pipelined requests parse
    by repeated calls).  [Error] describes the first problem;
    incomplete input is an error mentioning "incomplete".  A
    [Content-Length] value is digits only (RFC 7230's [1*DIGIT]), and
    several [Content-Length] headers must carry the same text. *)

val format_request : request -> string

val response : status:int -> string -> response
(** Builds a response with the standard reason phrase and a
    [Content-Length] header. *)

val ok : string -> response

val not_found : response

val bad_request : string -> response

val format_response : response -> string

val parse_response : string -> (response * int, string) result
(** Parse one complete response from the front of the buffer, as
    {!parse_request} does a request.  The status code is exactly three
    digits (RFC 9112's [3DIGIT]). *)

val response_status : string -> (int, string) result
(** The status of the response at the front of the buffer, after the
    checks {!parse_response} makes (status line, headers, the
    [Content-Length] rules and the body length), with the same [Error]
    text; [Ok s] exactly when [parse_response] gives a response with
    status [s].  Copies no reason phrase, header or body: the load
    generators read only the status. *)

val reason_phrase : int -> string
