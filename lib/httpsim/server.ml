type model = {
  name : string;
  dispatch_overhead_ns : int;
  parse_ns : int;
  service_ns : int;
  alloc_per_request : int;
  gc_threshold : int;
  gc_pause_ns : int;
}

let mc =
  {
    name = "mc";
    dispatch_overhead_ns = 1_200;
    parse_ns = 2_000;
    service_ns = 25_000;
    alloc_per_request = 1_024;
    gc_threshold = 8 lsl 20;
    gc_pause_ns = 300_000;
  }

let lwt =
  {
    name = "lwt";
    dispatch_overhead_ns = 2_500;
    parse_ns = 2_000;
    service_ns = 25_000;
    alloc_per_request = 4_096;
    gc_threshold = 8 lsl 20;
    gc_pause_ns = 450_000;
  }

let go =
  {
    name = "go";
    dispatch_overhead_ns = 1_800;
    parse_ns = 2_000;
    service_ns = 25_000;
    alloc_per_request = 2_560;
    gc_threshold = 8 lsl 20;
    gc_pause_ns = 350_000;
  }

let all = [ mc; lwt; go ]

let static_page =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<html><head><title>retrofit bench</title></head><body>";
  for i = 1 to 24 do
    Buffer.add_string buf (Printf.sprintf "<p>line %02d of the static benchmark page</p>" i)
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

exception Backend_failure

let crash_header = "x-fault-inject"

let internal_error = Http.response ~status:500 "internal server error"

let app_handler (req : Http.request) =
  (match Http.header req crash_header with Some "crash" -> raise Backend_failure | _ -> ());
  match (req.meth, req.target) with
  | Http.GET, "/" -> Http.ok static_page
  | Http.GET, _ -> Http.not_found
  | _ -> Http.response ~status:405 "method not allowed"
