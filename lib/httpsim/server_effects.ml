module Sched = Retrofit_core.Sched

type _ Effect.t += Io_ready : unit Effect.t

(* The per-request thread body, in direct style: wait for the socket,
   parse, handle, serialise.  [pre] runs between the socket wait and
   the parse: the supervised simulation injects the request's service
   time there as a cooperative sleep, so the barrier below guards real
   suspension points. *)
let request_thread ~pre raw () =
  Effect.perform Io_ready;
  pre ();
  match Http.parse_request raw with
  | Ok (req, _) -> Http.format_response (Server.app_handler req)
  | Error e -> Http.format_response (Http.bad_request e)

let process_raw_with ?(pre = fun () -> ()) raw =
  Effect.Deep.match_with (request_thread ~pre raw) ()
    {
      Effect.Deep.retc = Fun.id;
      (* Crash barrier: an exception escaping the request fiber becomes
         a 500 at the handler boundary — it never aborts the server.
         Asynchronous terminations are not handler crashes: a Cancelled
         or chaos-Killed unwind passes through to whoever initiated it
         (cancelled ≠ crashed — it must not count as a 500). *)
      exnc =
        (fun e ->
          match e with
          | Sched.Cancelled | Sched.Killed -> raise e
          | _ -> Http.format_response Server.internal_error);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Io_ready ->
              (* In the simulation the bytes have already arrived, so the
                 scheduler resumes the fiber immediately. *)
              Some (fun (k : (c, string) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let process_raw raw = process_raw_with raw
