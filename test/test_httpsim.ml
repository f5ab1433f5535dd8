module H = Retrofit_httpsim

let test name f = Alcotest.test_case name `Quick f

(* ---------------- Http ---------------- *)

let simple_get = "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"

let parse_get () =
  match H.Http.parse_request simple_get with
  | Ok (req, consumed) ->
      Alcotest.(check string) "method" "GET" (H.Http.meth_to_string req.H.Http.meth);
      Alcotest.(check string) "target" "/index.html" req.target;
      Alcotest.(check string) "version" "HTTP/1.1" req.version;
      Alcotest.(check (option string)) "host" (Some "x") (H.Http.header req "Host");
      Alcotest.(check int) "consumed" (String.length simple_get) consumed
  | Error e -> Alcotest.fail e

let parse_post_body () =
  let raw = "POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  match H.Http.parse_request raw with
  | Ok (req, consumed) ->
      Alcotest.(check string) "body" "hello" req.H.Http.body;
      Alcotest.(check int) "consumed" (String.length raw) consumed
  | Error e -> Alcotest.fail e

let parse_pipelined () =
  let raw = simple_get ^ "GET /two HTTP/1.1\r\n\r\n" in
  match H.Http.parse_request raw with
  | Ok (_, consumed) -> (
      match H.Http.parse_request (String.sub raw consumed (String.length raw - consumed)) with
      | Ok (req2, _) -> Alcotest.(check string) "second" "/two" req2.H.Http.target
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let parse_incomplete () =
  let incomplete s =
    match H.Http.parse_request s with
    | Error e ->
        Alcotest.(check bool) "mentions incomplete" true
          (String.length e >= 10 && String.sub e 0 10 = "incomplete")
    | Ok _ -> Alcotest.fail ("parsed " ^ s)
  in
  incomplete "GET / HTTP/1.1";
  incomplete "GET / HTTP/1.1\r\nHost: x\r\n";
  incomplete "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"

let parse_malformed () =
  let bad s =
    match H.Http.parse_request s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "no version" true (bad "GET /\r\n\r\n");
  Alcotest.(check bool) "bad version" true (bad "GET / HTTP/3.0\r\n\r\n");
  Alcotest.(check bool) "bad header" true (bad "GET / HTTP/1.1\r\nnocolon\r\n\r\n");
  Alcotest.(check bool) "bad content length" true
    (bad "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")

let keep_alive_rules () =
  let req ?(version = "HTTP/1.1") ?(headers = []) () =
    { H.Http.meth = H.Http.GET; target = "/"; version; headers; body = "" }
  in
  Alcotest.(check bool) "1.1 default" true (H.Http.keep_alive (req ()));
  Alcotest.(check bool) "1.1 close" false
    (H.Http.keep_alive (req ~headers:[ ("connection", "close") ] ()));
  Alcotest.(check bool) "1.0 default" false (H.Http.keep_alive (req ~version:"HTTP/1.0" ()));
  Alcotest.(check bool) "1.0 keep-alive" true
    (H.Http.keep_alive (req ~version:"HTTP/1.0" ~headers:[ ("connection", "keep-alive") ] ()))

let response_roundtrip () =
  let resp = H.Http.ok "hello world" in
  let raw = H.Http.format_response resp in
  match H.Http.parse_response raw with
  | Ok (parsed, consumed) ->
      Alcotest.(check int) "status" 200 parsed.H.Http.status;
      Alcotest.(check string) "body" "hello world" parsed.resp_body;
      Alcotest.(check int) "consumed" (String.length raw) consumed
  | Error e -> Alcotest.fail e

let request_roundtrip () =
  let raw = H.Netsim.request_for ~target:"/page" ~conn_id:3 in
  match H.Http.parse_request raw with
  | Ok (req, _) ->
      Alcotest.(check string) "target" "/page" req.H.Http.target;
      Alcotest.(check (option string)) "conn header" (Some "3")
        (H.Http.header req "x-conn")
  | Error e -> Alcotest.fail e

let reason_phrases () =
  Alcotest.(check string) "200" "OK" (H.Http.reason_phrase 200);
  Alcotest.(check string) "404" "Not Found" (H.Http.reason_phrase 404);
  Alcotest.(check string) "unknown" "Status 599" (H.Http.reason_phrase 599)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"format/parse request roundtrip" ~count:100
    QCheck.(
      pair
        (string_gen_of_size (QCheck.Gen.int_range 1 20) QCheck.Gen.(char_range 'a' 'z'))
        (string_gen_of_size (QCheck.Gen.int_range 0 30) QCheck.Gen.(char_range 'a' 'z')))
    (fun (target, body) ->
      let req =
        {
          H.Http.meth = H.Http.POST;
          target = "/" ^ target;
          version = "HTTP/1.1";
          headers = [ ("host", "h") ];
          body;
        }
      in
      match H.Http.parse_request (H.Http.format_request req) with
      | Ok (parsed, _) ->
          parsed.H.Http.target = req.H.Http.target && parsed.body = body
      | Error _ -> false)

(* ---------------- Parser pins ---------------- *)

(* The exact result of a parse, bytes escaped: a pin compares these
   strings, so any change to a parsed field, to the consumed count or
   to an error message shows up as a diff. *)
let show_headers hs =
  String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%S=%S" n v) hs)

let show_request = function
  | Ok ((r : H.Http.request), n) ->
      Printf.sprintf "Ok %S %S %S [%s] %S +%d" (H.Http.meth_to_string r.meth) r.target
        r.version (show_headers r.headers) r.body n
  | Error e -> "Error " ^ e

let show_response = function
  | Ok ((r : H.Http.response), n) ->
      Printf.sprintf "Ok %d %S [%s] %S +%d" r.status r.reason (show_headers r.resp_headers)
        r.resp_body n
  | Error e -> "Error " ^ e

let request_pins =
  [
    (* header names and values trimmed of spaces, tabs, form feeds and
       stray CR/LF; names lower-cased, values kept *)
    ("GET / HTTP/1.1\r\n  Host :\t x \t\r\n\r\n", {|Ok "GET" "/" "HTTP/1.1" ["host"="x"] "" +33|});
    ( "GET / HTTP/1.1\r\nX-Mixed-CASE: Value\r\nACCEPT:*/*\r\n\r\n",
      {|Ok "GET" "/" "HTTP/1.1" ["x-mixed-case"="Value"; "accept"="*/*"] "" +51|} );
    ("GET / HTTP/1.1\r\n\012A\012: \012v\012\r\n\r\n", {|Ok "GET" "/" "HTTP/1.1" ["a"="v"] "" +28|});
    ( "GET / HTTP/1.1\r\nA: b\rc\r\nD\r: e\nf\r\n\r\n",
      {|Ok "GET" "/" "HTTP/1.1" ["a"="b\rc"; "d"="e\nf"] "" +35|} );
    ( "GET / HTTP/1.1\r\nA: b:c\r\nB:\r\n\r\n",
      {|Ok "GET" "/" "HTTP/1.1" ["a"="b:c"; "b"=""] "" +30|} );
    ("GET / HTTP/1.1\r\nA: 1\r\na: 2\r\n\r\n", {|Ok "GET" "/" "HTTP/1.1" ["a"="1"; "a"="2"] "" +30|});
    (* the request line splits on runs of spaces, and only on spaces *)
    ("GET  /a   HTTP/1.1\r\n\r\n", {|Ok "GET" "/a" "HTTP/1.1" [] "" +22|});
    (" GET /a HTTP/1.0 \r\n\r\n", {|Ok "GET" "/a" "HTTP/1.0" [] "" +21|});
    ("GET /a\tb HTTP/1.1\r\n\r\n", {|Ok "GET" "/a\tb" "HTTP/1.1" [] "" +21|});
    ("get /x HTTP/1.1\r\n\r\n", {|Ok "get" "/x" "HTTP/1.1" [] "" +19|});
    ("GET /\r\n\r\n", {|Error malformed request line "GET /"|});
    ("GET / HTTP/1.1 extra\r\n\r\n", {|Error malformed request line "GET / HTTP/1.1 extra"|});
    ("\r\n", {|Error malformed request line ""|});
    ("GET / HTTP/3.0\r\n\r\n", {|Error unsupported version "HTTP/3.0"|});
    (* bad header lines *)
    ("GET / HTTP/1.1\r\nnocolon\r\n\r\n", {|Error malformed header "nocolon"|});
    ("GET / HTTP/1.1\r\n : v\r\n\r\n", "Error empty header name");
    ("GET / HTTP/1.1\r\n:\r\n\r\n", "Error empty header name");
    (* Content-Length *)
    ("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", {|Error bad content-length "banana"|});
    ("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello", {|Error bad content-length "-5"|});
    ("POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello", {|Error bad content-length "5x"|});
    ( "POST / HTTP/1.1\r\nContent-Length:  5 \r\n\r\nhelloEXTRA",
      {|Ok "POST" "/" "HTTP/1.1" ["content-length"="5"] "hello" +45|} );
    (* RFC 7230: Content-Length = 1*DIGIT *)
    ("POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", {|Error bad content-length "+3"|});
    ("POST / HTTP/1.1\r\nContent-Length: 0x3\r\n\r\nabc", {|Error bad content-length "0x3"|});
    ( "POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
      {|Error bad content-length "1_0"|} );
    ( "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
      {|Error bad content-length "99999999999999999999"|} );
    ( "POST / HTTP/1.1\r\nContent-Length: 03\r\n\r\nabc",
      {|Ok "POST" "/" "HTTP/1.1" ["content-length"="03"] "abc" +42|} );
    ( "POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi",
      {|Ok "POST" "/" "HTTP/1.1" ["content-length"="2"; "content-length"="2"] "hi" +59|} );
    ("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", "Error incomplete body");
    (* incomplete input *)
    ("", "Error incomplete request line");
    ("GET / HTTP/1.1", "Error incomplete request line");
    ("GET / HTTP/1.1\r\nHost: x\r\n", "Error incomplete headers");
  ]

let response_pins =
  [
    ( "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello",
      {|Ok 200 "OK" ["content-length"="5"] "hello" +43|} );
    (* the reason phrase is its words joined by single spaces *)
    ("HTTP/1.1 404 Not  Found \r\n\r\n", {|Ok 404 "Not Found" [] "" +28|});
    ("HTTP/1.1  503   Service Unavailable\r\n\r\n", {|Ok 503 "Service Unavailable" [] "" +39|});
    ("HTTP/1.1 200\r\n\r\n", {|Ok 200 "" [] "" +16|});
    ("HTTP/1.0 204 No Content\r\nX-A: 1\r\n\r\n", {|Ok 204 "No Content" ["x-a"="1"] "" +35|});
    ("HTTP/1.1 0x1F Odd\r\n\r\n", {|Ok 31 "Odd" [] "" +21|});
    ("HTTP/2 200 OK\r\n\r\n", {|Error malformed status line "HTTP/2 200 OK"|});
    ("HTTP/1.1\r\n\r\n", {|Error malformed status line "HTTP/1.1"|});
    ("HTTP/1.1 abc OK\r\n\r\n", {|Error bad status "abc"|});
    ("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", {|Error bad content-length "-1"|});
    ("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab", "Error incomplete body");
    ("HTTP/1.1 200 OK\r\nnocolon\r\n\r\n", {|Error malformed header "nocolon"|});
    ("", "Error incomplete status line");
    ("HTTP/1.1 200 OK", "Error incomplete status line");
  ]

let parse_pins () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) (Printf.sprintf "request %S" raw) want
        (show_request (H.Http.parse_request raw)))
    request_pins;
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) (Printf.sprintf "response %S" raw) want
        (show_response (H.Http.parse_response raw)))
    response_pins

let parse_pins_pipelined () =
  let raw =
    "GET /one HTTP/1.1\r\nHost: x\r\n\r\nPOST /two HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
  in
  let first = H.Http.parse_request raw in
  Alcotest.(check string) "first" {|Ok "GET" "/one" "HTTP/1.1" ["host"="x"] "" +30|}
    (show_request first);
  let rest = String.sub raw 30 (String.length raw - 30) in
  Alcotest.(check string) "second"
    {|Ok "POST" "/two" "HTTP/1.1" ["content-length"="3"] "abc" +44|}
    (show_request (H.Http.parse_request rest))

let full_request =
  {|Ok "GET" "/" "HTTP/1.1" ["host"="bench.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +78|}

(* Every prefix of a simulated request, and of a reply, pinned as
   ranges of prefix lengths with one result each. *)
let parse_pins_truncations () =
  let ranges show parse raw want =
    List.iter
      (fun (lo, hi, expect) ->
        for keep = lo to hi do
          Alcotest.(check string)
            (Printf.sprintf "prefix %d" keep)
            expect
            (show (parse (String.sub raw 0 keep)))
        done)
      want;
    let _, last, _ = List.nth want (List.length want - 1) in
    Alcotest.(check int) "ranges cover every prefix" (String.length raw) last
  in
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:7 in
  Alcotest.(check int) "request length" 78 (String.length raw);
  ranges show_request H.Http.parse_request raw
    [
      (0, 15, "Error incomplete request line");
      (16, 77, "Error incomplete headers");
      (78, 78, full_request);
    ];
  ranges show_response H.Http.parse_response
    (H.Http.format_response (H.Http.ok "hello"))
    [
      (0, 16, "Error incomplete status line");
      (17, 37, "Error incomplete headers");
      (38, 42, "Error incomplete body");
      (43, 43, {|Ok 200 "OK" ["content-length"="5"] "hello" +43|});
    ]

(* Each kind of wire damage the fault plan applies, at the interesting
   offsets of "GET / HTTP/1.1\r\nhost: bench.local\r\n...". *)
let parse_pins_damaged () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:7 in
  List.iter
    (fun (fault, what, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" (H.Faults.fault_label fault) what)
        want
        (show_request (H.Http.parse_request (H.Faults.damaged_raw raw fault))))
    H.Faults.
      [
        (Truncate 0, "to nothing", "Error incomplete request line");
        (Truncate 5, "mid request line", "Error incomplete request line");
        (Truncate 16, "after request line", "Error incomplete headers");
        (Truncate 1000, "past the end", full_request);
        ( Corrupt 0,
          "method",
          {|Ok "\031ET" "/" "HTTP/1.1" ["host"="bench.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +78|}
        );
        ( Corrupt 4,
          "target",
          {|Ok "GET" "\031" "HTTP/1.1" ["host"="bench.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +78|}
        );
        (Corrupt 6, "version", {|Error unsupported version "\031TTP/1.1"|});
        ( Corrupt 14,
          "request-line CR",
          {|Error malformed request line "GET / HTTP/1.1\031\nhost: bench.local"|} );
        ( Corrupt 15,
          "request-line LF",
          {|Error malformed request line "GET / HTTP/1.1\r\031host: bench.local"|} );
        ( Corrupt 16,
          "header name",
          {|Ok "GET" "/" "HTTP/1.1" ["\031ost"="bench.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +78|}
        );
        (Corrupt 20, "header colon", {|Error malformed header "host\031 bench.local"|});
        ( Corrupt 23,
          "header value",
          {|Ok "GET" "/" "HTTP/1.1" ["host"="b\031nch.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +78|}
        );
        (Corrupt 1000, "past the end", full_request);
        ( Backend_fail,
          "crash tag",
          {|Ok "GET" "/" "HTTP/1.1" ["x-fault-inject"="crash"; "host"="bench.local"; "user-agent"="retrofit-loadgen"; "x-conn"="7"] "" +101|}
        );
        (Drop, "untouched", full_request);
        (Stall 5, "untouched", full_request);
        (Backend_slow 5, "untouched", full_request);
      ]

(* Minor-heap words [f ()] allocates, net of the measurement itself. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let c = Gc.minor_words () in
  int_of_float (c -. b -. (b -. a))

(* The parser copies out only the fields it returns, and a reply is
   written once into a buffer of its exact size (the 1141-byte page
   alone is 144 words).  Ceilings at the measured figures keep either
   from silently regressing. *)
let http_allocation_ceilings () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  let page = H.Http.ok H.Server.static_page in
  let check what ceiling f =
    let words = minor_words f in
    Alcotest.(check bool) (Printf.sprintf "%s: %d words <= %d" what words ceiling) true
      (words <= ceiling)
  in
  check "parse_request of a simulated request" 72 (fun () -> H.Http.parse_request raw);
  check "format_response of the static page" 146 (fun () -> H.Http.format_response page)

(* Regression: content_length took the first of several Content-Length
   headers.  Differing values must be rejected (RFC 7230 §3.3.2), and
   every server answers such a request with a 400; repeats of one value
   are still accepted, and values are compared as text. *)
let conflicting_content_length () =
  let raw = "POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 5\r\n\r\nabcde" in
  Alcotest.(check string) "request" {|Error conflicting content-length "3" and "5"|}
    (show_request (H.Http.parse_request raw));
  Alcotest.(check string) "response" {|Error conflicting content-length "3" and "4"|}
    (show_response
       (H.Http.parse_response "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"));
  Alcotest.(check string) "a later invalid value" {|Error bad content-length "x"|}
    (show_request
       (H.Http.parse_request "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: x\r\n\r\nabc"));
  Alcotest.(check string) "same value twice"
    {|Ok "POST" "/" "HTTP/1.1" ["content-length"="3"; "content-length"="3"] "abc" +60|}
    (show_request
       (H.Http.parse_request "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"));
  Alcotest.(check string) "one number, two texts" {|Error conflicting content-length "3" and "03"|}
    (show_request
       (H.Http.parse_request "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 03\r\n\r\nabc"));
  List.iter
    (fun ((model : H.Server.model), process) ->
      match H.Http.parse_response (process raw) with
      | Ok (resp, _) -> Alcotest.(check int) (model.name ^ " answers 400") 400 resp.H.Http.status
      | Error e -> Alcotest.fail e)
    H.Experiment.servers

(* ---------------- Netsim ---------------- *)

let netsim_poisson () =
  let rng = Retrofit_util.Rng.create 2 in
  let events =
    H.Netsim.poisson_rate ~rng ~connections:10 ~rate_rps:10_000 ~duration_ms:200
      ~target:"/" ()
  in
  let n = List.length events in
  (* expect about 2000 arrivals; allow generous slack *)
  Alcotest.(check bool) (Printf.sprintf "n=%d near 2000" n) true (n > 1600 && n < 2400);
  List.iter
    (fun (e : H.Netsim.event) ->
      Alcotest.(check bool) "in horizon" true
        (e.arrival_ns >= 0 && e.arrival_ns < 200_000_000))
    events;
  (* Loadgen serves the trace as it comes, so arrivals must never go
     backwards. *)
  let rec check_sorted = function
    | (a : H.Netsim.event) :: (b :: _ as rest) ->
        if a.arrival_ns > b.H.Netsim.arrival_ns then
          Alcotest.failf "arrival %d after %d" b.arrival_ns a.arrival_ns;
        check_sorted rest
    | _ -> ()
  in
  check_sorted events;
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3 ]
    (List.filteri (fun i _ -> i < 4) (List.map (fun (e : H.Netsim.event) -> e.conn_id) events))

(* Each event carries its connection's request bytes, and the events of
   one connection share one string instead of re-serialising it. *)
let netsim_shares_request_bytes () =
  let check name (events : H.Netsim.event list) =
    let first = Hashtbl.create 16 in
    List.iter
      (fun (e : H.Netsim.event) ->
        Alcotest.(check string)
          (Printf.sprintf "%s conn %d bytes" name e.conn_id)
          (H.Netsim.request_for ~target:"/s" ~conn_id:e.conn_id)
          e.raw;
        match Hashtbl.find_opt first e.conn_id with
        | None -> Hashtbl.add first e.conn_id e.raw
        | Some raw ->
            Alcotest.(check bool) (Printf.sprintf "%s conn %d shared" name e.conn_id) true
              (raw == e.raw))
      events;
    Alcotest.(check int) (name ^ " connections seen") 5 (Hashtbl.length first)
  in
  check "poisson"
    (H.Netsim.poisson_rate ~rng:(Retrofit_util.Rng.create 4) ~connections:5 ~rate_rps:5_000
       ~duration_ms:20 ~target:"/s" ())

(* ---------------- Servers ---------------- *)

let servers_serve () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  List.iter
    (fun (model, process) ->
      match H.Http.parse_response (process raw) with
      | Ok (resp, _) ->
          Alcotest.(check int) (model.H.Server.name ^ " 200") 200 resp.H.Http.status;
          Alcotest.(check string)
            (model.H.Server.name ^ " body")
            H.Server.static_page resp.resp_body
      | Error e -> Alcotest.fail e)
    H.Experiment.servers

let servers_404_405 () =
  let process = H.Server_effects.process_raw in
  let raw = H.Netsim.request_for ~target:"/missing" ~conn_id:0 in
  (match H.Http.parse_response (process raw) with
  | Ok (resp, _) -> Alcotest.(check int) "404" 404 resp.H.Http.status
  | Error e -> Alcotest.fail e);
  let post = "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n" in
  (match H.Http.parse_response (process post) with
  | Ok (resp, _) -> Alcotest.(check int) "405" 405 resp.H.Http.status
  | Error e -> Alcotest.fail e);
  match H.Http.parse_response (process "garbage\r\n\r\n") with
  | Ok (resp, _) -> Alcotest.(check int) "400" 400 resp.H.Http.status
  | Error e -> Alcotest.fail e

(* ---------------- Loadgen / Experiment ---------------- *)

let loadgen_sane () =
  let o =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:10_000 ~duration_ms:200 ()
  in
  Alcotest.(check int) "no errors" 0 o.H.Loadgen.errors;
  Alcotest.(check bool) "completed" true (o.completed > 1_000);
  Alcotest.(check bool) "p50 <= p99" true (o.p50_ns <= o.p99_ns);
  Alcotest.(check bool) "p99 <= p99.9" true (o.p99_ns <= o.p999_ns);
  Alcotest.(check bool) "achieved near offered" true
    (o.achieved_rps > 9_000. && o.achieved_rps < 11_000.)

let loadgen_deterministic () =
  let run () =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:5_000 ~duration_ms:100 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "p99 deterministic" a.H.Loadgen.p99_ns b.H.Loadgen.p99_ns;
  Alcotest.(check int) "completed" a.completed b.completed

let throughput_saturates () =
  List.iter
    (fun (model, process) ->
      let low =
        H.Loadgen.run ~model ~process ~rate_rps:10_000 ~duration_ms:300 ()
      in
      let over =
        H.Loadgen.run ~model ~process ~rate_rps:60_000 ~duration_ms:300 ()
      in
      Alcotest.(check bool)
        (model.H.Server.name ^ " keeps up at 10k")
        true
        (low.H.Loadgen.achieved_rps > 9_500.);
      Alcotest.(check bool)
        (model.H.Server.name ^ " saturates under 40k")
        true
        (over.H.Loadgen.achieved_rps < 40_000.))
    H.Experiment.servers

let mc_best_tail () =
  let outcomes = H.Experiment.fig6b ~rate_rps:20_000 ~duration_ms:1_000 () in
  let find name =
    List.find (fun (o : H.Loadgen.outcome) -> o.model_name = name) outcomes
  in
  let mc = find "mc" and lwt = find "lwt" in
  Alcotest.(check bool) "mc p99.9 <= lwt p99.9" true
    (mc.H.Loadgen.p999_ns <= lwt.H.Loadgen.p999_ns)

(* Regression: format_request used a case-sensitive lookup, so a caller
   header spelled "Content-Length" got a second, synthesised
   "content-length" — a duplicate on the wire. *)
let format_request_content_length_once () =
  let req =
    {
      H.Http.meth = H.Http.POST;
      target = "/";
      version = "HTTP/1.1";
      headers = [ ("Content-Length", "5") ];
      body = "hello";
    }
  in
  let raw = H.Http.format_request req in
  let count =
    String.split_on_char '\n' raw
    |> List.filter (fun line ->
           let line = String.lowercase_ascii line in
           String.length line >= 15 && String.sub line 0 15 = "content-length:")
    |> List.length
  in
  Alcotest.(check int) "exactly one content-length header" 1 count;
  match H.Http.parse_request raw with
  | Ok (parsed, _) -> Alcotest.(check string) "body intact" "hello" parsed.H.Http.body
  | Error e -> Alcotest.fail e

(* ---------------- Netsim determinism ---------------- *)

let netsim_poisson_properties () =
  let trace seed =
    let rng = Retrofit_util.Rng.create seed in
    H.Netsim.poisson_rate ~rng ~connections:7 ~rate_rps:5_000 ~duration_ms:100
      ~target:"/" ()
  in
  let a = trace 11 and a' = trace 11 and b = trace 12 in
  Alcotest.(check bool) "equal seeds give identical traces" true (a = a');
  Alcotest.(check bool) "different seeds give different traces" true (a <> b);
  let rec non_decreasing = function
    | (x : H.Netsim.event) :: (y :: _ as rest) ->
        x.arrival_ns <= y.H.Netsim.arrival_ns && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (non_decreasing a);
  List.iter
    (fun (e : H.Netsim.event) ->
      Alcotest.(check bool) "conn_id in range" true (e.conn_id >= 0 && e.conn_id < 7))
    a

(* ---------------- Fault-shaped inputs never crash the parser -------- *)

let parse_truncation_total () =
  let full_req = "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" in
  for keep = 0 to String.length full_req - 1 do
    match H.Http.parse_request (String.sub full_req 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix %d parsed as a full request" keep)
    | exception e ->
        Alcotest.fail (Printf.sprintf "prefix %d raised %s" keep (Printexc.to_string e))
  done;
  let full_resp = H.Http.format_response (H.Http.ok "hello world") in
  for keep = 0 to String.length full_resp - 1 do
    match H.Http.parse_response (String.sub full_resp 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix %d parsed as a full response" keep)
    | exception e ->
        Alcotest.fail (Printf.sprintf "prefix %d raised %s" keep (Printexc.to_string e))
  done

let parse_garbage_headers () =
  let err s =
    match H.Http.parse_request s with
    | Error _ -> true
    | Ok _ -> false
    | exception _ -> false
  in
  Alcotest.(check bool) "header without colon" true
    (err "GET / HTTP/1.1\r\nno colon here\r\n\r\n");
  Alcotest.(check bool) "negative content-length" true
    (err "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello");
  Alcotest.(check bool) "garbage content-length" true
    (err "POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello");
  Alcotest.(check bool) "empty header name" true (err "GET / HTTP/1.1\r\n: v\r\n\r\n");
  Alcotest.(check bool) "response negative content-length" true
    (match H.Http.parse_response "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" with
    | Error _ -> true
    | Ok _ | (exception _) -> false)

(* ---------------- Faults ---------------- *)

let faults_plan_deterministic () =
  let rng = Retrofit_util.Rng.create 3 in
  let events =
    H.Netsim.poisson_rate ~rng ~connections:10 ~rate_rps:20_000 ~duration_ms:100
      ~target:"/" ()
  in
  let p1 = H.Faults.plan ~seed:7 ~rates:H.Faults.default events in
  let p2 = H.Faults.plan ~seed:7 ~rates:H.Faults.default events in
  let p3 = H.Faults.plan ~seed:8 ~rates:H.Faults.default events in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "different seed, different plan" true (p1 <> p3);
  Alcotest.(check int) "length preserved" (List.length events) (List.length p1);
  Alcotest.(check bool) "default plan injects something" true
    (H.Faults.injected_count p1 > 0);
  let clean = H.Faults.plan ~seed:7 ~rates:H.Faults.none events in
  Alcotest.(check int) "zero rates inject nothing" 0 (H.Faults.injected_count clean);
  Alcotest.check_raises "negative scale rejected"
    (Invalid_argument "Faults.scale: negative factor") (fun () ->
      ignore (H.Faults.scale (-1.0) H.Faults.default))

let faults_damage_is_rejected_not_fatal () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  List.iter
    (fun (model, process) ->
      let check fault expect_status =
        let reply = process (H.Faults.damaged_raw raw fault) in
        match H.Http.parse_response reply with
        | Ok (resp, _) ->
            Alcotest.(check int)
              (Printf.sprintf "%s %s" model.H.Server.name
                 (H.Faults.fault_label fault))
              expect_status resp.H.Http.status
        | Error e -> Alcotest.fail e
      in
      (* Wire damage: 4xx.  Crash tag: the handler raises mid-request
         and the crash barrier converts it to a 500 — never an escape. *)
      check (H.Faults.Truncate 5) 400;
      check H.Faults.Backend_fail 500;
      (* A corrupted byte anywhere in the first 16 positions of the
         request line yields some non-200 rejection — never a crash. *)
      for i = 0 to min 15 (String.length raw - 1) do
        let reply = process (H.Faults.damaged_raw raw (H.Faults.Corrupt i)) in
        match H.Http.parse_response reply with
        | Ok (resp, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s corrupt@%d non-200 (got %d)" model.H.Server.name
                 i resp.H.Http.status)
              true (resp.H.Http.status <> 200)
        | Error e -> Alcotest.fail e
      done)
    H.Experiment.servers

(* ---------------- Status-only validation ---------------- *)

(* [response_status] answers [Ok s] exactly when [parse_response] parses
   a response with status [s], and fails with the same text otherwise. *)
let status_agrees raw =
  match (H.Http.parse_response raw, H.Http.response_status raw) with
  | Ok (r, _), Ok s -> r.H.Http.status = s
  | Error a, Error b -> String.equal a b
  | _ -> false

let check_status_agrees what raw =
  Alcotest.(check bool) (Printf.sprintf "%s %S" what raw) true (status_agrees raw)

(* Every reply the three servers give: to the clean request, to a 404
   and a 405, and to every fault the plan can apply at every offset,
   which covers each reply class of [Faults] (200, the 400s of wire
   damage, the crash barrier's 500).  Each distinct reply is checked
   whole and at every prefix. *)
let response_status_matches_server_replies () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:7 in
  let len = String.length raw in
  let faults =
    H.Faults.[ Backend_fail; Drop; Stall 5; Backend_slow 5 ]
    @ List.init (len + 2) (fun i -> H.Faults.Truncate i)
    @ List.init (len + 2) (fun i -> H.Faults.Corrupt i)
  in
  let requests =
    H.Netsim.request_for ~target:"/missing" ~conn_id:0
    :: "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
    :: List.map (H.Faults.damaged_raw raw) faults
  in
  let replies = Hashtbl.create 64 in
  List.iter
    (fun ((model : H.Server.model), process) ->
      List.iter
        (fun req ->
          let reply = process req in
          if not (Hashtbl.mem replies reply) then Hashtbl.add replies reply model.name)
        requests)
    H.Experiment.servers;
  let statuses = ref [] in
  Hashtbl.iter
    (fun reply server ->
      (match H.Http.response_status reply with
      | Ok s -> if not (List.mem s !statuses) then statuses := s :: !statuses
      | Error e -> Alcotest.failf "%s reply rejected: %s" server e);
      for keep = 0 to String.length reply do
        check_status_agrees server (String.sub reply 0 keep)
      done)
    replies;
  Alcotest.(check (list int)) "reply classes" [ 200; 400; 404; 405; 500 ]
    (List.sort compare !statuses)

(* The hand-made replies of the parser pins, each at every prefix. *)
let response_status_matches_pins () =
  List.iter
    (fun (raw, _) ->
      for keep = 0 to String.length raw do
        check_status_agrees "pin" (String.sub raw 0 keep)
      done)
    response_pins

(* Mutated replies: any version and status token (bad, non-numeric,
   hex, signed, past max_int), any reason, headers that repeat, conflict
   or break the [Content-Length] rules (non-digits, signs, spaces in the
   name, case), malformed header lines, a body shorter or longer than
   announced, then a truncation or a corrupted byte. *)
let gen_mutated_reply =
  let open QCheck.Gen in
  let version =
    frequency
      [ (8, return "HTTP/1.1"); (2, return "HTTP/1.0"); (1, oneofl [ "HTTP/2"; "http/1.1"; "" ]) ]
  in
  let status =
    frequency
      [
        (4, oneofl [ "200"; "404"; "500"; "0200" ]);
        ( 1,
          oneofl
            [ "0x1F"; "0o17"; "0b11"; "0u5"; "-5"; "+3"; "1_0"; "2OO"; "abc"; "";
              "99999999999999999999"; "4611686018427387903"; "4611686018427387904";
              "123456789012345678"; "1234567890123456789" ] );
      ]
  in
  let reason = oneofl [ ""; "OK"; "Not  Found "; " x"; "\t" ] in
  let cl_name =
    oneofl [ "content-length"; "Content-Length"; "CONTENT-LENGTH"; " content-length "; "content-lengths" ]
  in
  let cl_value =
    oneofl
      [ "0"; "1"; "3"; "5"; "8"; "03"; "+3"; "0x3"; "1_0"; ""; "-1"; " 5 "; "5 "; "abc"; "3 3";
        "99999999999999999999"; "4611686018427387903"; "4611686018427387904" ]
  in
  let header =
    frequency
      [
        (4, map2 (fun n v -> n ^ ":" ^ v) cl_name cl_value);
        (2, oneofl [ "x-a: 1"; "Server: y"; "x-b:" ]);
        (1, oneofl [ "nocolon"; ": empty-name"; "  : x"; "a\rb: c" ]);
      ]
  in
  let body = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let mutation =
    frequency
      [
        (3, return `None);
        (2, map (fun k -> `Truncate k) (int_range 0 80));
        (2, map2 (fun i c -> `Corrupt (i, c)) (int_range 0 80) (oneofl [ '\r'; '\n'; ' '; ':'; 'x'; '9' ]));
      ]
  in
  map
    (fun ((v, st, r), (hs, b, m)) ->
      let reply =
        String.concat ""
          ([ v; " "; st; (if r = "" then "" else " " ^ r); "\r\n" ]
          @ List.concat_map (fun h -> [ h; "\r\n" ]) hs
          @ [ "\r\n"; b ])
      in
      let n = String.length reply in
      match m with
      | `None -> reply
      | `Truncate k -> String.sub reply 0 (min k n)
      | `Corrupt (i, c) ->
          if i >= n then reply
          else String.mapi (fun j x -> if j = i then c else x) reply)
    (pair (triple version status reason) (triple (list_size (int_range 0 4) header) body mutation))

let prop_response_status =
  QCheck.Test.make ~name:"response_status agrees with parse_response" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated_reply)
    status_agrees

(* Reading a reply's status copies none of it: the static page's reply
   costs the [Ok] alone. *)
let response_status_allocates_nothing () =
  let reply = H.Http.format_response (H.Http.ok H.Server.static_page) in
  let words = minor_words (fun () -> H.Http.response_status reply) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 2" words) true (words <= 2)

(* ---------------- Resilient engine ---------------- *)

(* Frozen pins: the zero-fault default path is the Fig 6 machinery and
   must stay bit-for-bit across refactors (same seed, same numbers). *)
let loadgen_frozen_counters () =
  let run model process =
    H.Loadgen.run ~model ~process ~rate_rps:10_000 ~duration_ms:300 ()
  in
  let check name (o : H.Loadgen.outcome) completed gc p50 p90 p99 p999 max_ns =
    Alcotest.(check int) (name ^ " completed") completed o.completed;
    Alcotest.(check int) (name ^ " errors") 0 o.errors;
    Alcotest.(check int) (name ^ " gc") gc o.gc_pauses;
    Alcotest.(check int) (name ^ " p50") p50 o.p50_ns;
    Alcotest.(check int) (name ^ " p90") p90 o.p90_ns;
    Alcotest.(check int) (name ^ " p99") p99 o.p99_ns;
    Alcotest.(check int) (name ^ " p999") p999 o.p999_ns;
    Alcotest.(check int) (name ^ " max") max_ns o.max_ns
  in
  check "mc"
    (run H.Server.mc H.Server_effects.process_raw)
    3045 0 34784 66176 107328 164608 170056;
  check "lwt"
    (run H.Server.lwt H.Server_monad.process_raw)
    3045 1 36320 70848 121984 482304 517389;
  check "go" (run H.Server.go H.Server_go.process_raw) 3045 0 35488 67840 109696
    169472 174436;
  let over =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:25_000 ~duration_ms:300 ()
  in
  Alcotest.(check int) "mc 25k completed" 7558 over.completed;
  Alcotest.(check int) "mc 25k p99" 405248 over.p99_ns

(* With no faults and a lenient policy, the resilient engine must
   reproduce the plain engine exactly: same RNG draw order, same FIFO
   service order, same histogram. *)
let resilient_zero_fault_equivalence () =
  List.iter
    (fun (model, process) ->
      let plain = H.Loadgen.run ~model ~process ~rate_rps:10_000 ~duration_ms:200 () in
      let res =
        H.Loadgen.run ~faults:H.Faults.none ~resilience:H.Loadgen.lenient_resilience
          ~model ~process ~rate_rps:10_000 ~duration_ms:200 ()
      in
      let name = model.H.Server.name in
      Alcotest.(check int) (name ^ " completed") plain.H.Loadgen.completed res.H.Loadgen.completed;
      Alcotest.(check int) (name ^ " errors") plain.errors res.errors;
      Alcotest.(check int) (name ^ " gc") plain.gc_pauses res.gc_pauses;
      Alcotest.(check int) (name ^ " p50") plain.p50_ns res.p50_ns;
      Alcotest.(check int) (name ^ " p99") plain.p99_ns res.p99_ns;
      Alcotest.(check int) (name ^ " p999") plain.p999_ns res.p999_ns;
      Alcotest.(check int) (name ^ " max") plain.max_ns res.max_ns;
      Alcotest.(check (float 0.0001)) (name ^ " achieved") plain.achieved_rps res.achieved_rps)
    H.Experiment.servers

let check_taxonomy name (o : H.Loadgen.outcome) =
  Alcotest.(check int)
    (name ^ " dispositions partition the trace")
    o.total_requests
    (o.completed + o.timeouts + o.malformed);
  Alcotest.(check int) (name ^ " errors = timeouts + malformed")
    (o.timeouts + o.malformed) o.errors;
  Alcotest.(check int)
    (name ^ " every fault accounted exactly once")
    o.faults.H.Loadgen.injected
    (o.faults.H.Loadgen.to_malformed + o.faults.H.Loadgen.to_retried
   + o.faults.H.Loadgen.to_timeout + o.faults.H.Loadgen.to_server_error
   + o.faults.H.Loadgen.to_absorbed)

(* The acceptance run: default fault plan, 20k req/s, all three
   servers — no uncaught exceptions, taxonomy invariants hold, and the
   run is deterministic in the seed. *)
let resilient_default_faults () =
  List.iter
    (fun (model, process) ->
      let run () =
        H.Loadgen.run ~faults:H.Faults.default ~model ~process ~rate_rps:20_000
          ~duration_ms:300 ()
      in
      let o = run () in
      let name = model.H.Server.name in
      check_taxonomy name o;
      Alcotest.(check bool) (name ^ " injected some faults") true
        (o.faults.H.Loadgen.injected > 0);
      Alcotest.(check bool) (name ^ " most requests still complete") true
        (float_of_int o.completed > 0.9 *. float_of_int o.total_requests);
      Alcotest.(check bool) (name ^ " crash barrier produced 500s") true
        (o.server_errors > 0);
      Alcotest.(check bool) (name ^ " drops were retried") true (o.retries > 0);
      let o' = run () in
      Alcotest.(check bool) (name ^ " deterministic in seed") true (o = o'))
    H.Experiment.servers

let resilient_sheds_under_tiny_cap () =
  let o =
    H.Loadgen.run ~faults:H.Faults.none
      ~resilience:{ H.Loadgen.default_resilience with queue_cap = 2 }
      ~model:H.Server.mc ~process:H.Server_effects.process_raw ~rate_rps:40_000
      ~duration_ms:200 ()
  in
  Alcotest.(check bool) "sheds under overload" true (o.H.Loadgen.shed > 0);
  check_taxonomy "mc tiny cap" o

(* Goodput degrades gracefully as fault intensity rises: it shrinks,
   but never collapses (the resilience layer keeps most requests
   completing even at twice the default fault rates). *)
let degradation_graceful () =
  let goodput intensity =
    let o =
      H.Loadgen.run
        ~faults:(H.Faults.scale intensity H.Faults.default)
        ~model:H.Server.mc ~process:H.Server_effects.process_raw ~rate_rps:20_000
        ~duration_ms:300 ()
    in
    check_taxonomy (Printf.sprintf "mc @%.1fx" intensity) o;
    float_of_int o.completed /. float_of_int o.total_requests
  in
  let g0 = goodput 0.0 and g1 = goodput 1.0 and g2 = goodput 2.0 in
  Alcotest.(check bool) "zero faults complete everything" true (g0 = 1.0);
  Alcotest.(check bool) (Printf.sprintf "monotone %.4f >= %.4f" g1 g2) true (g1 >= g2);
  Alcotest.(check bool) (Printf.sprintf "no collapse (%.4f)" g2) true (g2 > 0.9)

(* Pins the faulted engine across seeds: an MD5 over one printed line
   per outcome (floats as exact hex), for seeds 1-10 x the three models
   x {default plan and policy, 4x the default plan with a queue cap of
   8}.  The golden run and the causal run pin one seed each; this one
   guards the service order (retries, stalls and first attempts merged
   by time) on many.  The value is the one the engine gave when it
   still had a separate zero-fault path. *)
let resilient_outcomes_pinned () =
  let b = Buffer.create 65536 in
  let settings =
    [
      (H.Faults.default, H.Loadgen.default_resilience);
      ( H.Faults.scale 4.0 H.Faults.default,
        { H.Loadgen.default_resilience with queue_cap = 8 } );
    ]
  in
  for seed = 1 to 10 do
    List.iter
      (fun (model, process) ->
        List.iter
          (fun (faults, resilience) ->
            let o =
              H.Loadgen.run ~seed ~faults ~resilience ~model ~process ~rate_rps:30_000
                ~duration_ms:200 ()
            in
            let f = o.H.Loadgen.faults in
            Printf.bprintf b
              "%d %s %d %h %d %d %d %d %d %d %d %d %d/%d/%d/%d/%d/%d %d %h %d %d %d %d %d\n"
              seed o.model_name o.offered_rps o.achieved_rps o.total_requests o.completed
              o.errors o.timeouts o.retries o.shed o.malformed o.server_errors
              f.H.Loadgen.injected f.to_malformed f.to_retried f.to_timeout
              f.to_server_error f.to_absorbed o.gc_pauses o.mean_ns o.p50_ns o.p90_ns
              o.p99_ns o.p999_ns o.max_ns)
          settings)
      H.Experiment.servers
  done;
  Alcotest.(check string) "MD5 of 60 faulted outcomes" "70fb34f5dbf9973afc83f7cfea6141aa"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------------- crash barriers: cancelled <> crashed ---------------- *)

(* ISSUE 7 regression: each server's crash barrier must turn handler
   exceptions into a 500 but re-raise Cancelled/Killed unwinds — an
   asynchronously terminated request is not a server error. *)
let barriers_distinguish_cancelled () =
  let module Sched = Retrofit_core.Sched in
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  let withs : (string * (?pre:(unit -> unit) -> string -> string)) list =
    [
      ("mc", H.Server_effects.process_raw_with);
      ("go", H.Server_go.process_raw_with);
      ("lwt", H.Server_monad.process_raw_with);
    ]
  in
  List.iter
    (fun (name, (process : ?pre:(unit -> unit) -> string -> string)) ->
      (* a crashing handler is still a 500 *)
      (match
         H.Http.parse_response (process ~pre:(fun () -> failwith "boom") raw)
       with
      | Ok (resp, _) ->
          Alcotest.(check int) (name ^ " crash is 500") 500 resp.H.Http.status
      | Error e -> Alcotest.fail e);
      (* cancellation and kills pass through *)
      Alcotest.check_raises (name ^ " cancel re-raised") Sched.Cancelled
        (fun () ->
          ignore (process ~pre:(fun () -> raise Sched.Cancelled) raw));
      Alcotest.check_raises (name ^ " kill re-raised") Sched.Killed (fun () ->
          ignore (process ~pre:(fun () -> raise Sched.Killed) raw));
      (* and the plain path still serves *)
      match H.Http.parse_response (process raw) with
      | Ok (resp, _) ->
          Alcotest.(check int) (name ^ " still 200") 200 resp.H.Http.status
      | Error e -> Alcotest.fail e)
    withs

(* ---------------- supervised simulation ---------------- *)

let supervised_calm_completes () =
  let cfg =
    { (H.Supervised.default_config ~seed:5) with H.Supervised.connections = 24 }
  in
  let s = H.Supervised.run cfg in
  Alcotest.(check int) "all completed" s.H.Supervised.total
    s.H.Supervised.completed;
  Alcotest.(check int) "no restarts" 0 s.H.Supervised.restarts;
  Alcotest.(check int) "accounting conserved" s.H.Supervised.total
    (H.Supervised.accounted s);
  Alcotest.(check int) "no silent drops" 0 s.H.Supervised.silent

let supervised_chaos_deterministic () =
  let cfg =
    {
      (H.Supervised.default_config ~seed:13) with
      H.Supervised.connections = 30;
      chaos = Some (Retrofit_core.Sched.Chaos.default ~seed:13);
      wedge_rate = 0.1;
      max_restarts = 1000;
    }
  in
  let a = H.Supervised.run cfg and b = H.Supervised.run cfg in
  Alcotest.(check string) "double run byte-identical"
    (H.Supervised.summary_to_string a)
    (H.Supervised.summary_to_string b);
  Alcotest.(check int) "accounting conserved under chaos"
    a.H.Supervised.total (H.Supervised.accounted a);
  Alcotest.(check int) "no silent drops under chaos" 0 a.H.Supervised.silent

let supervised_drain_accounts_everything () =
  let cfg =
    {
      (H.Supervised.default_config ~seed:4) with
      H.Supervised.connections = 40;
      drain_after_ns = Some 300_000;
      drain_deadline_ns = 1_500_000;
    }
  in
  let s = H.Supervised.run cfg in
  Alcotest.(check bool) "drain ran" true (s.H.Supervised.drain_latency_ns >= 0);
  Alcotest.(check bool) "something was rejected mid-drain" true
    (s.H.Supervised.rejected_drain > 0);
  Alcotest.(check int) "accounting conserved" s.H.Supervised.total
    (H.Supervised.accounted s);
  Alcotest.(check int) "zero silent drops" 0 s.H.Supervised.silent;
  Alcotest.(check string) "graceful outcome" "completed" s.H.Supervised.outcome

let suite =
  [
    test "parse GET" parse_get;
    test "parse POST with body" parse_post_body;
    test "parse pipelined" parse_pipelined;
    test "incomplete requests" parse_incomplete;
    test "malformed requests" parse_malformed;
    test "keep-alive rules" keep_alive_rules;
    test "response roundtrip" response_roundtrip;
    test "loadgen request roundtrip" request_roundtrip;
    test "reason phrases" reason_phrases;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    test "netsim poisson" netsim_poisson;
    test "all servers serve the page" servers_serve;
    test "servers handle 404/405/400" servers_404_405;
    test "loadgen sanity" loadgen_sane;
    test "loadgen deterministic" loadgen_deterministic;
    test "throughput saturates" throughput_saturates;
    test "mc has best tail" mc_best_tail;
    test "format_request emits one content-length" format_request_content_length_once;
    test "netsim poisson determinism" netsim_poisson_properties;
    test "parser survives truncation at every prefix" parse_truncation_total;
    test "parser rejects garbage headers" parse_garbage_headers;
    test "fault plans are deterministic" faults_plan_deterministic;
    test "damaged requests rejected, crashes barriered" faults_damage_is_rejected_not_fatal;
    test "loadgen frozen counters" loadgen_frozen_counters;
    test "resilient engine matches plain at zero faults" resilient_zero_fault_equivalence;
    test "resilient run under default faults" resilient_default_faults;
    test "admission control sheds" resilient_sheds_under_tiny_cap;
    test "goodput degrades gracefully" degradation_graceful;
    test "barriers: cancelled is not a 500" barriers_distinguish_cancelled;
    test "supervised calm run completes" supervised_calm_completes;
    test "supervised chaos deterministic" supervised_chaos_deterministic;
    test "supervised drain accounts everything" supervised_drain_accounts_everything;
    test "parser pins" parse_pins;
    test "parser pins: pipelined pair" parse_pins_pipelined;
    test "parser pins: every truncation" parse_pins_truncations;
    test "parser pins: each damage kind" parse_pins_damaged;
    test "parse and format allocation ceilings" http_allocation_ceilings;
    test "conflicting content-length is rejected" conflicting_content_length;
    test "netsim shares request bytes per connection" netsim_shares_request_bytes;
    test "faulted outcomes pinned across seeds" resilient_outcomes_pinned;
    test "response_status agrees on every server reply" response_status_matches_server_replies;
    test "response_status agrees on the parser pins" response_status_matches_pins;
    QCheck_alcotest.to_alcotest prop_response_status;
    test "response_status copies nothing" response_status_allocates_nothing;
  ]
