(* Empty with a queue of parked takers, or full with the value and a
   queue of parked putters (each carrying the value it wants to
   deposit): the queue of the other side is always empty.

   Waiters carry a liveness flag tied to their fiber's cancellation
   cell: a fiber cancelled while parked here is purged from the queue
   eagerly (via Ctl.set_cleanup), so no dead resumer ever lingers to
   skew the queue-depth accounting — and a cancelled put never deposits
   its value. *)

type 'a taker = { t_resume : 'a Sched.resumer; mutable t_live : bool }

type 'a putter = { p_value : 'a; p_resume : unit Sched.resumer; mutable p_live : bool }

type 'a t = {
  mutable value : 'a option;  (* [Some] when full *)
  takers : 'a taker Queue.t;
  putters : 'a putter Queue.t;
}

let create_empty () = { value = None; takers = Queue.create (); putters = Queue.create () }

let create v = { value = Some v; takers = Queue.create (); putters = Queue.create () }

let purge q live =
  let keep = Queue.create () in
  Queue.iter (fun n -> if live n then Queue.push n keep) q;
  Queue.clear q;
  Queue.transfer keep q

(* Drop the dead waiters at the front (belt and braces: cleanup should
   already have purged them), so the front, if any, is live. *)
let rec drop_dead q live =
  if (not (Queue.is_empty q)) && not (live (Queue.peek q)) then begin
    ignore (Queue.take q);
    drop_dead q live
  end

let taker_live n = n.t_live

let putter_live n = n.p_live

(* Full to the next live putter's value, or to empty. *)
let refill t =
  drop_dead t.putters putter_live;
  if Queue.is_empty t.putters then t.value <- None
  else begin
    let n = Queue.take t.putters in
    t.value <- Some n.p_value;
    n.p_resume ()
  end

(* The control cell is fetched before suspending: effects cannot be
   performed from inside the suspend callback (it runs in the
   scheduler's handler context). *)
let take t =
  match t.value with
  | None ->
      let ctl = Sched.current_ctl () in
      Sched.suspend (fun resume ->
          let n = { t_resume = resume; t_live = true } in
          Queue.push n t.takers;
          match ctl with
          | Some c ->
              Sched.Ctl.set_cleanup c (fun () ->
                  n.t_live <- false;
                  purge t.takers taker_live)
          | None -> ())
  | Some v ->
      refill t;
      v

let put t v =
  match t.value with
  | Some _ ->
      let ctl = Sched.current_ctl () in
      Sched.suspend (fun resume ->
          let n = { p_value = v; p_resume = resume; p_live = true } in
          Queue.push n t.putters;
          match ctl with
          | Some c ->
              Sched.Ctl.set_cleanup c (fun () ->
                  n.p_live <- false;
                  purge t.putters putter_live)
          | None -> ())
  | None ->
      drop_dead t.takers taker_live;
      if Queue.is_empty t.takers then t.value <- Some v
      else (Queue.take t.takers).t_resume v

let try_take t =
  match t.value with
  | None -> None
  | Some _ as full ->
      refill t;
      full

let is_empty t = Option.is_none t.value

let count_live q live = Queue.fold (fun acc n -> if live n then acc + 1 else acc) 0 q

let waiters t =
  match t.value with
  | None -> count_live t.takers taker_live
  | Some _ -> count_live t.putters putter_live
