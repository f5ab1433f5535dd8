let initial_colors = [ 0; 1; 2; 0 ]

(* complement: meeting two different colours yields the third; equal
   colours are unchanged *)
let complement c1 c2 = if c1 = c2 then c1 else 3 - c1 - c2

(* The meeting place holds either nothing or one waiting creature (its
   colour and the MVar on which it awaits its partner's colour).  The
   second arrival completes the meeting and decrements the budget; a
   waiter can only be posted while budget remains, so no creature is
   left parked at the end. *)

(* ------------------------------------------------------------------ *)
(* Effect-scheduler version *)

module Mvar = Retrofit_core.Mvar
module Sched = Retrofit_core.Sched

type eff_place = Free | Waiting of int * int Mvar.t

let run_effects ~meetings =
  let total = ref 0 in
  Sched.run (fun () ->
      let remaining = ref meetings in
      let place = Mvar.create Free in
      let creature color0 =
        let color = ref color0 in
        let mine = ref 0 in
        let rec loop () =
          match Mvar.take place with
          | Free ->
              if !remaining = 0 then Mvar.put place Free
              else begin
                let resp = Mvar.create_empty () in
                Mvar.put place (Waiting (!color, resp));
                let other = Mvar.take resp in
                color := complement !color other;
                incr mine;
                loop ()
              end
          | Waiting (other, resp) ->
              decr remaining;
              Mvar.put place Free;
              Mvar.put resp !color;
              color := complement !color other;
              incr mine;
              loop ()
        in
        loop ();
        total := !total + !mine
      in
      List.iter (fun c -> Sched.fork (fun () -> creature c)) initial_colors);
  !total

(* ------------------------------------------------------------------ *)
(* Concurrency-monad version *)

module C = Retrofit_monad.Conc

type monad_place = MFree | MWaiting of int * int C.mvar

let run_monad ~meetings =
  let total = ref 0 in
  let remaining = ref meetings in
  let place = C.mvar_full MFree in
  let creature color0 =
    let open C in
    let rec loop color mine =
      take place >>= function
      | MFree ->
          if !remaining = 0 then put place MFree >>= fun () -> finish mine
          else begin
            let resp = mvar_empty () in
            put place (MWaiting (color, resp)) >>= fun () ->
            take resp >>= fun other -> loop (complement color other) (mine + 1)
          end
      | MWaiting (other, resp) ->
          atom (fun () -> decr remaining) >>= fun () ->
          put place MFree >>= fun () ->
          put resp color >>= fun () -> loop (complement color other) (mine + 1)
    and finish mine = atom (fun () -> total := !total + mine)
    in
    loop color0 0
  in
  C.run
    (List.fold_left
       (fun acc c -> C.(acc >>= fun () -> fork (creature c)))
       (C.return ()) initial_colors);
  !total

(* ------------------------------------------------------------------ *)
(* Lwt-like version *)

module L = Retrofit_monad.Lwtlike

type lwt_place = LFree | LWaiting of int * int L.mvar

let run_lwt ~meetings =
  let total = ref 0 in
  let remaining = ref meetings in
  let place = L.mvar_empty () in
  let creature color0 =
    let open L in
    let rec loop color mine =
      (* pause each turn to bound callback recursion, as Lwt code does *)
      pause () >>= fun () ->
      mvar_take place >>= function
      | LFree ->
          if !remaining = 0 then mvar_put place LFree >>= fun () -> finish mine
          else begin
            let resp = mvar_empty () in
            mvar_put place (LWaiting (color, resp)) >>= fun () ->
            mvar_take resp >>= fun other -> loop (complement color other) (mine + 1)
          end
      | LWaiting (other, resp) ->
          remaining := !remaining - 1;
          mvar_put place LFree >>= fun () ->
          mvar_put resp color >>= fun () -> loop (complement color other) (mine + 1)
    and finish mine =
      total := !total + mine;
      return ()
    in
    loop color0 0
  in
  let threads = List.map creature initial_colors in
  L.run
    L.(
      mvar_put place LFree >>= fun () ->
      join threads);
  !total
