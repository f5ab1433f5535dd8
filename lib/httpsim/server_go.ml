module Sched = Retrofit_core.Sched

(* A single-threaded GOMAXPROCS=1 world: goroutines are queued closures
   run to completion. *)
let runq : (unit -> unit) Queue.t = Queue.create ()

let go f = Queue.push f runq

let run_all () =
  while not (Queue.is_empty runq) do
    (Queue.pop runq) ()
  done

let process_raw_with ?(pre = fun () -> ()) raw =
  let result = ref "" in
  go (fun () ->
      (* Crash barrier: a panicking handler goroutine recovers to a 500
         (Go's recover-in-ServeHTTP), never killing the server loop.
         But recover does not catch goroutine destruction: a Cancelled
         or chaos-Killed unwind propagates (cancelled ≠ crashed). *)
      let resp =
        match Http.parse_request raw with
        | Ok (req, _) -> (
            try
              pre ();
              Server.app_handler req
            with
            | (Sched.Cancelled | Sched.Killed) as e -> raise e
            | _ -> Server.internal_error)
        | Error e -> Http.bad_request e
      in
      result := Http.format_response resp);
  run_all ();
  !result

let process_raw raw = process_raw_with raw
