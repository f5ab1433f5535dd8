module L = Retrofit_monad.Lwtlike
module Sched = Retrofit_core.Sched

let process_raw_with ?(pre = fun () -> ()) raw =
  let open L in
  run
    (* Crash barrier: a handler exception fails the promise chain and is
       recovered into a 500 — it never escapes [run].  Except a
       Cancelled/Killed unwind, which the recovery callback re-raises
       out of the promise graph (cancelled ≠ crashed). *)
    (catch
       (fun () ->
         pause () >>= fun () ->
         pre ();
         (match Http.parse_request raw with
         | Ok (req, _) -> return (Server.app_handler req)
         | Error e -> return (Http.bad_request e))
         >>= fun resp -> return (Http.format_response resp))
       (fun e ->
         match e with
         | Sched.Cancelled | Sched.Killed -> raise e
         | _ -> return (Http.format_response Server.internal_error)))

let process_raw raw = process_raw_with raw
