module Counter = Retrofit_util.Counter
module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event

open Mstate

type outcome = Mstate.outcome = Done of int | Uncaught of string * int | Fatal of string

type t = Mstate.t

type ctx = Mstate.ctx = { machine : t; callback : string -> int array -> int }

exception Ocaml_exn of string * int

exception Fatal_error of string

exception Cb_return of int
(* Internal: thrown by Ret when it pops a callback's base frame, to exit
   the nested execution loop in run_callback. *)

type cfun = ctx -> int array -> int

(* ------------------------------------------------------------------ *)
(* What the auditor's next pass must look at.  Each [touch*] is inlined
   at its site as one test of [t.auditor]; the recording is a call made
   only under an auditor. *)
let[@inline] touch t f = match t.auditor with Some a -> Audit.note_dirty a f | None -> ()

(* Called before the machine adds or removes base-index key [b]. *)
let[@inline] touch_base t b =
  match t.auditor with Some a -> Audit.note_base t a b | None -> ()

let[@inline] touch_slot t slot =
  match t.auditor with Some a -> Audit.note_slot a slot | None -> ()

(* One [put] or [take] call the machine made on its stack cache. *)
let[@inline] touch_cache t =
  match t.auditor with Some a -> Audit.note_cache a | None -> ()

let handed_out t = match t.auditor with Some a -> Audit.note_handed_out a | None -> ()

let compiled t = t.prog

let config t = t.cfg

let counters t = t.t_counters

let current_fiber t =
  handed_out t;
  t.current

let hand_out_opt t r =
  if Option.is_some r then handed_out t;
  r

let fiber_by_id t id = hand_out_opt t (Itbl.find_opt t.fibers_live id)

let fatal msg = raise (Fatal_error msg)

(* The counters bumped on every op or every call are bumped in place,
   at slots looked up once. *)
let slot_ops = Counter.index Counter.Ops

let slot_instructions = Counter.index Counter.Instructions

let slot_call = Counter.index Counter.Call

let slot_ret = Counter.index Counter.Ret

let slot_overflow_check = Counter.index Counter.Overflow_check

let[@inline] bump t slot n =
  let c = t.cells in
  Array.unsafe_set c slot (Array.unsafe_get c slot + n)

let[@inline] charge t n = bump t slot_instructions n

let count t name = Counter.incr t.t_counters name

(* Eventlog emission.  Machine events are stamped with the cumulative
   instruction cost — the machine's own virtual clock — and every site
   guards with [Trace.on ()] so the disabled path is one branch: no
   event is built, no counter is touched, and the frozen cost tables
   stay bit-identical. *)
let emit_ev t ev = Trace.emit ~ts:(Counter.value t.t_counters Counter.Instructions) ev

let find_fiber t addr =
  count t Counter.Addr_index_probe;
  match Imap.find_last_opt (fun b -> b <= addr) t.by_base with
  | Some (_, f) when Segment.contains f.Fiber.seg addr -> Some f
  | _ -> None

let fiber_of_addr t addr = hand_out_opt t (find_fiber t addr)

let current_id t = t.current.Fiber.id

let live_fiber t id =
  if id = t.current.Fiber.id then t.current else Itbl.find t.fibers_live id

let saved_pc t id = (live_fiber t id).regs.pc

let saved_sp t id = (live_fiber t id).regs.sp

let stack_top_at t addr =
  match find_fiber t addr with Some f -> Segment.top f.seg | None -> raise Not_found

(* The live fiber holding [addr], for [what]'s error. *)
let mapped t what addr =
  match find_fiber t addr with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "%s: unmapped address %d" what addr)

let read_mem t addr = Segment.read (mapped t "Machine.read_mem" addr).seg addr

let live_fiber_count t = Itbl.length t.fibers_live

(* ------------------------------------------------------------------ *)
(* Operand stack and memory helpers (always on the current fiber) *)

let rd f addr = Segment.read f.Fiber.seg addr

let wr f addr v = Segment.write f.Fiber.seg addr v

(* In place, so that a push or pop in the dispatch loop is an array
   access with no call; [Ivec.push] only when the stack must grow. *)
let[@inline] push_op (f : Fiber.t) v =
  let s = f.ops in
  let n = s.Ivec.len in
  if n < Array.length s.data then begin
    Array.unsafe_set s.data n v;
    s.len <- n + 1
  end
  else Ivec.push s v

let[@inline] pop_op (f : Fiber.t) =
  let s = f.ops in
  let n = s.Ivec.len - 1 in
  if n < 0 then fatal "operand stack underflow";
  s.len <- n;
  Array.unsafe_get s.data n

(* ------------------------------------------------------------------ *)
(* Fiber allocation, preamble initialisation and growth *)

let mc_policy t =
  match t.cfg.kind with
  | Config.Stock -> Stack_policy.copy_double
  | Config.Mc -> t.cfg.Config.policy

(* Chunk free-list (segmented / large-reserve policies). *)

let take_chunk t ~words =
  match t.chunk_pool with
  | arr :: rest when Array.length arr = words ->
      t.chunk_pool <- rest;
      t.chunk_pool_len <- t.chunk_pool_len - 1;
      count t Counter.Chunk_pool_hit;
      Array.fill arr 0 words 0;
      arr
  | _ -> Array.make words 0

let put_chunk t arr =
  if t.chunk_pool_len < 1024 then begin
    t.chunk_pool <- arr :: t.chunk_pool;
    t.chunk_pool_len <- t.chunk_pool_len + 1
  end

(* The stock main stack is the system stack: a reservation backed as it
   is first written.  An mc segment is backed whole at creation, since
   growing it copies every word anyway. *)
let seg_create t ~size =
  let pol = mc_policy t in
  let seg =
    match (t.cfg.kind, pol.Stack_policy.pk) with
    | Config.Stock, _ -> Segment.create_on_demand ~base:t.next_base ~size
    | Config.Mc, Stack_policy.Copy_double -> Segment.create ~base:t.next_base ~size
    | Config.Mc, (Stack_policy.Segmented | Stack_policy.Large_reserve) ->
        Segment.create_reserved ~base:t.next_base
          ~reserve:(max pol.Stack_policy.reserve_words size)
          ~committed:size
          ~ext_words:(Stack_policy.ext_words pol)
  in
  (* Leave a small unmapped gap between segments so that stray
     pointer arithmetic cannot silently cross into a neighbour. *)
  t.next_base <- t.next_base + Segment.reserve seg + 8;
  seg

let alloc_segment t ~size =
  if t.cfg.stack_cache then begin
    count t Counter.Stack_cache_lookup;
    touch_cache t
  end;
  match if t.cfg.stack_cache then Stack_cache.take t.cache ~size else None with
  | Some seg ->
      count t Counter.Stack_cache_hit;
      charge t Costs.fiber_alloc_cached;
      if Trace.on () then emit_ev t (Tev.Cache_hit { size });
      seg
  | None ->
      if t.cfg.stack_cache then begin
        count t Counter.Stack_cache_miss;
        if Trace.on () then emit_ev t (Tev.Cache_miss { size })
      end;
      count t Counter.Malloc;
      charge t Costs.fiber_alloc;
      seg_create t ~size

(* Lay out the Fig 3a preamble at the high end of the fiber and point
   the registers below it.  [bottom_trap] is the sentinel handler pc of
   the fiber's bottom trap frame: [Layout.trap_forward] for handler
   fibers, [Layout.main_uncaught] for the main stack. *)
let init_preamble (f : Fiber.t) ~handler_index ~bottom_trap =
  let top = Segment.top f.seg in
  let parent_id = match f.parent with Some p -> p.Fiber.id | None -> -1 in
  wr f (top - 1) parent_id;
  wr f (top - 2) handler_index;
  wr f (top - 3) 0;
  wr f (top - 4) 0;
  (* context block *)
  wr f (top - 5) 0;
  wr f (top - 6) 0;
  (* bottom trap frame: [old exn_ptr = null; handler pc] *)
  let trap = top - 8 in
  wr f trap 0;
  wr f (trap + 1) bottom_trap;
  Ivec.clear f.traps;
  Ivec.push f.traps trap;
  Ivec.push f.traps 0;
  f.regs.pc <- 0;
  f.regs.sp <- trap;
  f.regs.cfa <- trap;
  f.regs.fn <- -1;
  f.regs.exn_ptr <- trap;
  Ivec.clear f.ops;
  Vec.clear f.shadow

let register_fiber t f =
  (match t.auditor with
  | Some _ -> (
      match Itbl.find_opt t.fibers_live f.Fiber.id with
      | Some g -> touch_base t (Segment.base g.Fiber.seg)
      | None -> ())
  | None -> ());
  touch t f;
  touch_base t (Segment.base f.Fiber.seg);
  Itbl.replace t.fibers_live f.Fiber.id f;
  t.by_base <- Imap.add (Segment.base f.Fiber.seg) f t.by_base

(* Offer a segment the machine no longer uses to the stack cache.  Its
   base key is examined, so a live fiber's stack put by mistake is
   found. *)
let cache_put t seg =
  touch_cache t;
  touch_base t (Segment.base seg);
  Stack_cache.put t.cache ~size:(Segment.size seg) seg

let new_fiber t ~parent ~handler ~handler_index ~bottom_trap ~size =
  let seg = alloc_segment t ~size in
  let f = Fiber.create ~id:t.next_id ~seg ~parent ~handler in
  t.next_id <- t.next_id + 1;
  init_preamble f ~handler_index ~bottom_trap;
  register_fiber t f;
  if Trace.on () then
    emit_ev t
      (Tev.Fiber_create
         {
           id = f.Fiber.id;
           parent = (match parent with Some p -> p.Fiber.id | None -> -1);
           size;
         });
  f

let free_fiber t (f : Fiber.t) =
  if Trace.on () then emit_ev t (Tev.Fiber_free { id = f.Fiber.id });
  f.live <- false;
  touch t f;
  touch_base t (Segment.base f.seg);
  Itbl.remove t.fibers_live f.id;
  t.by_base <- Imap.remove (Segment.base f.seg) t.by_base;
  count t Counter.Fiber_free;
  charge t Costs.fiber_free;
  match (mc_policy t).Stack_policy.pk with
  | Stack_policy.Copy_double -> if t.cfg.stack_cache then cache_put t f.seg
  | Stack_policy.Segmented | Stack_policy.Large_reserve ->
      (* Extension chunks go back to the free list; the stripped base
         segment is recyclable through the stack cache only when no
         multishot clone still shares its chunks. *)
      List.iter (put_chunk t) (Segment.strip f.seg);
      if Segment.fully_private f.seg then begin
        if t.cfg.stack_cache then cache_put t f.seg
      end
      else Segment.release f.seg

(* [f]'s words moved by [delta]: rebase its registers and shadow stack,
   and the exception pointers saved inside its copied trap chain. *)
let rebase (f : Fiber.t) ~delta =
  Fiber.rebase f ~delta;
  let rec fix addr =
    if addr <> 0 then begin
      let old_ptr = rd f addr in
      if old_ptr <> 0 then begin
        wr f addr (old_ptr + delta);
        fix (old_ptr + delta)
      end
    end
  in
  fix f.regs.exn_ptr

(* Grow the fiber by copying it into a segment of (at least) double the
   size, then rebase every stored stack address, including the trap
   chain threaded through the copied memory (§5.2: "the two fiber_info
   fields are the only ones that need to be updated when fibers are
   moved" — plus, in any faithful model, the saved exception pointers,
   which the real runtime also rewrites when reallocating a stack). *)
let grow t (f : Fiber.t) ~needed =
  let old_seg = f.seg in
  let old_size = Segment.size old_seg in
  let used = Segment.top old_seg - f.regs.sp in
  let rec pick size =
    if size - used - t.cfg.red_zone >= needed then size else pick (size * 2)
  in
  let new_size = pick (old_size * 2) in
  let new_seg = alloc_segment t ~size:new_size in
  Segment.blit_into ~src:old_seg ~dst:new_seg;
  count t Counter.Stack_grow;
  Counter.add t.t_counters Counter.Words_copied old_size;
  charge t (Costs.grow_base + (Costs.grow_per_word * old_size));
  if Trace.on () then
    emit_ev t
      (Tev.Fiber_grow
         { id = f.Fiber.id; old_words = old_size; new_words = new_size;
           copied = old_size });
  let delta = Segment.top new_seg - Segment.top old_seg in
  f.seg <- new_seg;
  (* The fiber moved: invalidate its old interval and index the new one. *)
  touch t f;
  touch_base t (Segment.base old_seg);
  touch_base t (Segment.base new_seg);
  t.by_base <-
    Imap.add (Segment.base new_seg) f (Imap.remove (Segment.base old_seg) t.by_base);
  rebase f ~delta;
  (* The outgrown copy's words are dead.  A deep recursion outgrows one
     copy after another and rarely reuses their sizes, so the cache
     keeps only their shape and a reuse allocates fresh words. *)
  Segment.drop_words old_seg;
  if t.cfg.stack_cache then cache_put t old_seg

(* Every control transfer between fibers funnels through here so the
   switch counter and the eventlog cannot drift apart.  Callers that
   free or reparent must do so first: [t.current] is still the source
   fiber when this runs. *)
let switch_to t (f : Fiber.t) =
  if Trace.on () then
    emit_ev t
      (Tev.Fiber_switch { from_id = t.current.Fiber.id; to_id = f.Fiber.id });
  touch t t.current;
  t.current <- f;
  count t Counter.Switch

(* ------------------------------------------------------------------ *)
(* Calls *)

let raise_ref :
    (t -> int -> int -> unit) ref =
  ref (fun _ _ _ -> assert false)
(* machine_raise and emulate_call are mutually recursive with the
   overflow path; tied below. *)

(* In-place growth for the segmented and large-reserve policies: commit
   chunks below the live region until the frame (plus the red-zone
   scratch that callbacks and boundary traps rely on) fits.  No copy,
   no rebasing.  Returns false when the reservation is exhausted. *)
let grow_in_place t (f : Fiber.t) ~needed ~per_chunk =
  let seg = f.seg in
  let old_words = Segment.size seg in
  let fits () = f.regs.sp - needed >= Segment.limit seg + t.cfg.red_zone in
  let rec loop () =
    if fits () then true
    else if Segment.can_extend seg then begin
      per_chunk ();
      Segment.extend seg (take_chunk t ~words:(Segment.ext_words seg));
      loop ()
    end
    else false (* the reservation's guard page: a real overflow *)
  in
  let ok = loop () in
  if ok && Trace.on () && Segment.size seg > old_words then
    emit_ev t
      (Tev.Fiber_grow
         {
           id = f.Fiber.id;
           old_words;
           new_words = Segment.size seg;
           copied = 0;
         });
  ok

(* Make room for [needed] words (plus the red zone) below [f]'s sp by
   the policy's own step: copy-and-double growth, or committing chunks
   or pages in place.  False when the stack cannot grow: the stock
   stack's guard page, or an exhausted reservation; the caller raises
   Stack_overflow. *)
let make_room t (f : Fiber.t) ~needed =
  match t.cfg.kind with
  | Config.Stock -> false
  | Config.Mc -> (
      match t.cfg.Config.policy.Stack_policy.pk with
      | Stack_policy.Copy_double ->
          grow t f ~needed;
          true
      | Stack_policy.Segmented ->
          grow_in_place t f ~needed ~per_chunk:(fun () ->
              count t Counter.Chunk_commit;
              charge t Costs.chunk_commit)
      | Stack_policy.Large_reserve ->
          (* Crossing the committed watermark is a modeled fault that
             commits pages in place. *)
          count t Counter.Page_fault;
          charge t Costs.page_fault;
          grow_in_place t f ~needed ~per_chunk:(fun () ->
              count t Counter.Page_commit;
              charge t Costs.page_commit))

(* Enter function [fid] on [f].  Its arguments are the top [nparams]
   words of [f]'s operand stack, the last one on top; they move into the
   new frame's parameter slots and leave the stack. *)
let emulate_call t (f : Fiber.t) fid ~ra =
  let fn = t.prog.fns.(fid) in
  let ops = f.ops in
  let ops_base = ops.Ivec.len - fn.nparams in
  if ops_base < 0 then fatal "operand stack underflow";
  let needed = fn.frame_words in
  let ok =
    match t.cfg.kind with
    | Config.Stock ->
        (* A guard page hit raises Stack_overflow below. *)
        f.regs.sp - needed >= Segment.limit f.seg
    | Config.Mc -> (
        match t.cfg.Config.policy.Stack_policy.pk with
        | Stack_policy.Copy_double ->
            let checked = not (fn.is_leaf && needed <= t.cfg.red_zone) in
            (match t.auditor with
            | Some a
              when checked
                   <> Otss.needs_check ~red_zone:t.cfg.red_zone ~is_leaf:fn.is_leaf
                        ~frame_words:needed ->
                Audit.audit_fail a "red-zone-elision"
                  (Printf.sprintf
                     "%s: overflow check %s but Otss.needs_check says %b (leaf=%b, \
                      frame=%d, red_zone=%d)"
                     fn.fn_name
                     (if checked then "emitted" else "elided")
                     (not checked) fn.is_leaf needed t.cfg.red_zone)
            | _ -> ());
            if checked then begin
              bump t slot_overflow_check 1;
              charge t Costs.check;
              if f.regs.sp - needed < Segment.limit f.seg + t.cfg.red_zone then
                grow t f ~needed
            end
            else count t Counter.Check_elided;
            if f.regs.sp - needed < Segment.limit f.seg then
              fatal (Printf.sprintf "red zone violated by %s" fn.fn_name);
            true
        | Stack_policy.Segmented ->
            (* Every call pays the boundary check; there is no red-zone
               elision to buy back (the libseff segmented trade-off). *)
            count t Counter.Segment_check;
            charge t Costs.segment_check;
            f.regs.sp - needed >= Segment.limit f.seg + t.cfg.red_zone
            || make_room t f ~needed
        | Stack_policy.Large_reserve ->
            (* No prologue checks at all: the guard page is the check. *)
            f.regs.sp - needed >= Segment.limit f.seg + t.cfg.red_zone
            || make_room t f ~needed)
  in
  if not ok then !raise_ref t t.overflow_id 0
  else begin
    bump t slot_call 1;
    charge t Costs.call;
    let ra_addr = f.regs.sp - 1 in
    wr f ra_addr ra;
    Vec.push f.shadow
      {
        Fiber.sf_fn = fid;
        sf_ra = ra;
        sf_caller_cfa_off = Fiber.offset_of f f.regs.cfa;
        sf_caller_fn = f.regs.fn;
        sf_cfa_off = Fiber.offset_of f (ra_addr + 1);
        sf_ops_base = ops_base;
      };
    f.regs.cfa <- ra_addr + 1;
    f.regs.fn <- fid;
    f.regs.pc <- fn.entry;
    f.regs.sp <- ra_addr - fn.nlocals;
    for i = 0 to fn.nparams - 1 do
      wr f (ra_addr - 1 - i) (Array.unsafe_get ops.data (ops_base + i))
    done;
    ops.len <- ops_base;
    match t.on_call with Some hook -> hook t | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Exceptions *)

let machine_raise t exn_id payload =
  count t Counter.Raise;
  charge t Costs.raise_;
  if Trace.on () then
    emit_ev t (Tev.Raise { exn = Compile.exn_name t.prog exn_id });
  let rec unwind () =
    let f = t.current in
    let a = f.Fiber.regs.exn_ptr in
    if a = 0 then fatal "exception with no trap frame";
    let old = rd f a and hpc = rd f (a + 1) in
    let mops = Ivec.pop f.traps in
    if Ivec.pop f.traps <> a then fatal "trap mirror out of sync";
    f.regs.sp <- a + 2;
    f.regs.exn_ptr <- old;
    Ivec.truncate f.ops mops;
    if hpc = Layout.trap_forward then begin
      (* Fiber bottom: forward the exception to the parent fiber,
         running the handler's exception case there if it matches. *)
      let p =
        match f.parent with
        | Some p -> p
        | None -> fatal "exception unwound past a captured fiber"
      in
      let h =
        match f.handler with
        | Some h -> h
        | None -> fatal "handler fiber without a handler"
      in
      free_fiber t f;
      switch_to t p;
      match Hashtbl.find h.Compile.h_exn_tbl exn_id with
      | fid ->
          push_op p payload;
          emulate_call t p fid ~ra:p.regs.pc
      | exception Not_found -> unwind ()
    end
    else if hpc = Layout.c_trap then begin
      (* Callback boundary: pop the saved-pc context word too, then
         propagate to the C caller as a host exception. *)
      while Fiber.sf_cfa f (Vec.top f.shadow) <= a do
        ignore (Vec.pop f.shadow)
      done;
      f.regs.sp <- a + 3;
      raise (Ocaml_exn (Compile.exn_name t.prog exn_id, payload))
    end
    else if hpc = Layout.main_uncaught then
      t.result <- Some (Uncaught (Compile.exn_name t.prog exn_id, payload))
    else begin
      (* Ordinary trap: unwind the shadow stack to the frame holding the
         trap and enter the handler code with [payload; id] pushed. *)
      while Fiber.sf_cfa f (Vec.top f.shadow) <= a do
        ignore (Vec.pop f.shadow)
      done;
      let sf = Vec.top f.shadow in
      f.regs.cfa <- Fiber.sf_cfa f sf;
      f.regs.fn <- sf.Fiber.sf_fn;
      f.regs.pc <- hpc;
      push_op f payload;
      push_op f exn_id
    end
  in
  unwind ()

let () = raise_ref := machine_raise

(* ------------------------------------------------------------------ *)
(* Fiber returns, effects, continuations *)

let fiber_return t result =
  let f = t.current in
  let p =
    match f.Fiber.parent with
    | Some p -> p
    | None -> fatal "fiber return without a parent"
  in
  let h =
    match f.handler with Some h -> h | None -> fatal "fiber return without a handler"
  in
  count t Counter.Fiber_return;
  charge t Costs.fiber_return;
  if Trace.on () then
    emit_ev t
      (Tev.Handler_pop
         { hidx = rd f (Segment.top f.Fiber.seg - 2); fiber = f.Fiber.id });
  free_fiber t f;
  switch_to t p;
  push_op p result;
  emulate_call t p h.Compile.h_retc ~ra:p.regs.pc

(* A fresh continuation slot: the top of the free list, one generation
   on, or a new slot when the list is empty. *)
let capture_slot t =
  if Ivec.is_empty t.free_slots then begin
    let slot = Vec.length t.conts in
    Vec.push t.conts { fibers = Vec.create (); cont_live = true; gen = 0 };
    touch_slot t slot;
    slot
  end
  else begin
    let slot = Ivec.pop t.free_slots in
    let k = Vec.get t.conts slot in
    k.gen <- k.gen + 1;
    k.cont_live <- true;
    touch_slot t slot;
    slot
  end

(* A continuation is used up: mark it dead (a later resume raises
   Invalid_argument) and drop its fibers, which would otherwise stay
   reachable from [t.conts] until the run ends.  A one-shot slot goes
   back on the free list unless its generation is spent; a multishot
   one is never reused. *)
let spend t slot k =
  k.cont_live <- false;
  Vec.clear k.fibers;
  touch_slot t slot;
  if (not t.cfg.multishot) && k.gen < max_gen then Ivec.push t.free_slots slot

let notify_perform t ~site ~eff handler =
  match t.on_perform with Some hook -> hook ~site ~eff ~handler | None -> ()

(* Parent pointers live both in the fiber record and in the handler_info
   word at the top of its stack (Fig 3a); the unwinder reads the latter,
   so both must move together. *)
let set_parent t (f : Fiber.t) (p : Fiber.t option) =
  f.parent <- p;
  wr f (Segment.top f.seg - 1) (match p with Some p -> p.Fiber.id | None -> -1);
  touch t f

(* The chain tail is the most recently captured fiber: O(1) at the end
   of the Vec, so capture cost stays linear in reperform depth. *)
let relink_tail t k target =
  if not (Vec.is_empty k.fibers) then set_parent t (Vec.top k.fibers) (Some target)

(* Walk out from [cur] capturing fibers into slot [slot] until a handler
   has a clause for [eff], then call the clause with the payload [v] and
   the continuation value. *)
let rec perform_hop t ~site ~eff v slot k (cur : Fiber.t) =
  match cur.handler with
  | None ->
      (* Handler-less boundary: the main stack or a callback.  The
         effect is unhandled; reinstate whatever was captured and raise
         Unhandled at the perform site (§3.2).  The continuation value
         was never handed out, so its slot is spent at once. *)
      if Vec.is_empty k.fibers then spend t slot k
      else begin
        let first = Vec.get k.fibers 0 in
        relink_tail t k cur;
        spend t slot k;
        switch_to t first
      end;
      notify_perform t ~site ~eff (-1);
      machine_raise t t.unhandled_id 0
  | Some h -> (
      count t Counter.Eff_tbl_probe;
      relink_tail t k cur;
      Vec.push k.fibers cur;
      let p =
        match cur.parent with
        | Some p -> p
        | None -> fatal "handler fiber without a parent during perform"
      in
      set_parent t cur None;
      match Hashtbl.find h.Compile.h_eff_tbl eff with
      | fid ->
          notify_perform t ~site ~eff (rd cur (Segment.top cur.Fiber.seg - 2));
          switch_to t p;
          push_op p v;
          push_op p (kid_of ~slot ~gen:k.gen);
          emulate_call t p fid ~ra:p.regs.pc
      | exception Not_found ->
          count t Counter.Reperform;
          charge t Costs.reperform;
          perform_hop t ~site ~eff v slot k p)

let do_perform t eff_id =
  count t Counter.Perform;
  charge t Costs.perform;
  if Trace.on () then emit_ev t (Tev.Perform { eff = t.prog.eff_names.(eff_id) });
  (* [exec_instr] bumps pc before dispatching, so the PerformI site is
     one behind the current pc.  Captured here, before any switching. *)
  let site = t.current.Fiber.regs.pc - 1 in
  let v = pop_op t.current in
  let slot = capture_slot t in
  perform_hop t ~site ~eff:eff_id v slot (Vec.get t.conts slot) t.current

(* Deep-copy one captured fiber for multi-shot resumption (§5.2's
   semantics-faithful behaviour): a fresh segment with the same
   contents, rebased registers, shadow stack and trap mirror, and the
   in-memory trap chain rewritten — the same fixups as stack growth.

   The clone is policy-aware.  Copy-and-double clones eagerly through
   the stack cache.  The chunked policies rebuild the source's chunk
   shape (free-list chunks plus a cache-recycled base) and copy the
   committed words; with [cow_clone] the clone instead {e shares} the
   source's chunks and defers each chunk's copy to its first write
   ([chunk_cow]/[cow_words] count the deferred copies as they
   happen). *)
let copy_fiber t (f : Fiber.t) =
  let size = Segment.size f.seg in
  let pol = mc_policy t in
  let seg =
    match pol.Stack_policy.pk with
    | Stack_policy.Copy_double ->
        let seg = alloc_segment t ~size in
        Segment.blit_into ~src:f.seg ~dst:seg;
        Counter.add t.t_counters Counter.Words_copied size;
        charge t (Costs.grow_per_word * size);
        seg
    | Stack_policy.Segmented when pol.Stack_policy.cow_clone ->
        let seg = Segment.share_clone f.seg ~base:t.next_base in
        t.next_base <- t.next_base + Segment.reserve seg + 8;
        count t Counter.Cont_share;
        charge t Costs.cow_share;
        Segment.set_notify_cow seg (fun words ->
            count t Counter.Chunk_cow;
            Counter.add t.t_counters Counter.Cow_words words;
            charge t (Costs.cow_per_word * words));
        seg
    | Stack_policy.Segmented | Stack_policy.Large_reserve ->
        let ext = Segment.ext_words f.seg in
        let head = size - (Segment.ext_count f.seg * ext) in
        let seg = alloc_segment t ~size:head in
        let commit_counter, commit_cost =
          match pol.Stack_policy.pk with
          | Stack_policy.Large_reserve -> (Counter.Page_commit, Costs.page_commit)
          | _ -> (Counter.Chunk_commit, Costs.chunk_commit)
        in
        for _ = 1 to Segment.ext_count f.seg do
          count t commit_counter;
          charge t commit_cost;
          Segment.extend seg (take_chunk t ~words:ext)
        done;
        Segment.blit_into ~src:f.seg ~dst:seg;
        Counter.add t.t_counters Counter.Words_copied size;
        charge t (Costs.grow_per_word * size);
        seg
  in
  let copy = Fiber.create ~id:t.next_id ~seg ~parent:None ~handler:f.handler in
  t.next_id <- t.next_id + 1;
  copy.regs.pc <- f.regs.pc;
  copy.regs.sp <- f.regs.sp;
  copy.regs.cfa <- f.regs.cfa;
  copy.regs.fn <- f.regs.fn;
  copy.regs.exn_ptr <- f.regs.exn_ptr;
  Ivec.append copy.ops f.ops;
  Vec.append copy.shadow f.shadow;
  Ivec.append copy.traps f.traps;
  let delta = Segment.top seg - Segment.top f.seg in
  rebase copy ~delta;
  register_fiber t copy;
  copy

(* Copy a whole chain, re-linking parents (and the parent-id words in
   each copy's handler_info) within the copy. *)
let copy_chain t fibers =
  let copies = Vec.map (copy_fiber t) fibers in
  for i = 0 to Vec.length copies - 2 do
    set_parent t (Vec.get copies i) (Some (Vec.get copies (i + 1)))
  done;
  copies

let do_resume t ~raise_instead v kid =
  let slot = kid land slot_mask and gen = kid lsr slot_bits in
  if kid < 0 || slot >= Vec.length t.conts then fatal "invalid continuation value";
  let k = Vec.get t.conts slot in
  if gen > k.gen then fatal "invalid continuation value";
  if gen < k.gen || not k.cont_live then machine_raise t t.invalid_arg_id 0
  else begin
    count t Counter.Resume;
    charge t (Costs.resume + (Costs.resume_per_fiber * Vec.length k.fibers));
    if Trace.on () then begin
      match raise_instead with
      | None -> emit_ev t (Tev.Resume { kid; fibers = Vec.length k.fibers })
      | Some exn_id ->
          emit_ev t
            (Tev.Discontinue { kid; exn = Compile.exn_name t.prog exn_id })
    end;
    let fibers =
      if t.cfg.multishot then begin
        (* resuming copies the fibers and leaves the continuation as it
           is (§5.2, operational semantics) *)
        count t Counter.Cont_copy;
        copy_chain t k.fibers
      end
      else k.fibers
    in
    if Vec.is_empty fibers then fatal "empty continuation";
    (* Both chain ends in O(1): the head is switched to, the tail is
       reparented onto the resumer. *)
    let first = Vec.get fibers 0 in
    let last = Vec.top fibers in
    if not t.cfg.multishot then spend t slot k;
    set_parent t last (Some t.current);
    switch_to t first;
    match raise_instead with
    | None -> push_op first v
    | Some exn_id -> machine_raise t exn_id v
  end

let do_handle t hidx =
  count t Counter.Handle;
  let spec = t.prog.handles.(hidx) in
  let parent = t.current in
  let ops_base = Ivec.length parent.ops - spec.h_nargs in
  if ops_base < 0 then fatal "operand stack underflow";
  (* The variable area provides [initial_words] of checked headroom; the
     red zone sits below it so that unchecked leaf frames always fit. *)
  let size = Layout.preamble_words + t.cfg.initial_words + t.cfg.red_zone in
  let f =
    new_fiber t ~parent:(Some t.current) ~handler:(Some spec) ~handler_index:hidx
      ~bottom_trap:Layout.trap_forward ~size
  in
  count t Counter.Fiber_alloc;
  if Trace.on () then
    emit_ev t (Tev.Handler_push { hidx; fiber = f.Fiber.id });
  (* The body's arguments move to the new fiber's operand stack. *)
  for i = ops_base to ops_base + spec.h_nargs - 1 do
    push_op f (Ivec.get parent.ops i)
  done;
  Ivec.truncate parent.ops ops_base;
  switch_to t f;
  emulate_call t f spec.h_body ~ra:Layout.ret_to_parent

(* ------------------------------------------------------------------ *)
(* Traps *)

let push_trap t (f : Fiber.t) ~hpc =
  count t Counter.Pushtrap;
  charge t Costs.pushtrap;
  let a = f.regs.sp - 2 in
  wr f a f.regs.exn_ptr;
  wr f (a + 1) hpc;
  f.regs.sp <- a;
  f.regs.exn_ptr <- a;
  Ivec.push f.traps a;
  Ivec.push f.traps (Ivec.length f.ops)

let pop_trap t (f : Fiber.t) =
  count t Counter.Poptrap;
  charge t Costs.poptrap;
  let a = f.regs.exn_ptr in
  if a <> f.regs.sp then fatal "poptrap with a non-top trap";
  f.regs.exn_ptr <- rd f a;
  f.regs.sp <- a + 2;
  Ivec.truncate f.traps (Ivec.length f.traps - 2)

(* The context word and the boundary trap of a callback take three
   words below sp.  A checked prologue leaves the red zone free for
   them; with a red zone under three words, make room as a call does.
   A stack that cannot grow raises Stack_overflow out of the callback. *)
let make_callback_room t (f : Fiber.t) =
  if f.regs.sp - 3 < Segment.limit f.seg && not (make_room t f ~needed:3) then
    raise (Ocaml_exn (Compile.exn_name t.prog t.overflow_id, 0))

(* ------------------------------------------------------------------ *)
(* Instruction dispatch *)

(* Pushes the result onto [f]'s operand stack, or raises
   Division_by_zero in the machine. *)
let[@inline] binop t f op a b =
  match (op : Ir.binop) with
  | Ir.Add -> push_op f (a + b)
  | Ir.Sub -> push_op f (a - b)
  | Ir.Mul -> push_op f (a * b)
  | Ir.Div -> if b = 0 then machine_raise t t.divzero_id a else push_op f (a / b)
  | Ir.Mod -> if b = 0 then machine_raise t t.divzero_id a else push_op f (a mod b)
  | Ir.Lt -> push_op f (if a < b then 1 else 0)
  | Ir.Le -> push_op f (if a <= b then 1 else 0)
  | Ir.Eq -> push_op f (if a = b then 1 else 0)
  | Ir.Ne -> push_op f (if a <> b then 1 else 0)

let require_mc t what =
  match t.cfg.kind with
  | Config.Mc -> ()
  | Config.Stock ->
      fatal (what ^ " is not supported by the stock runtime configuration")

(* A simple instruction: one of those a straight-line run holds
   ([Compile.straight_runs]), with [f]'s pc already past it.  Both loops
   execute them here.  None emits an event, calls a hook or switches
   fiber, and only [Bin Div]/[Bin Mod] can raise. *)
let[@inline] exec_simple t (f : Fiber.t) (instr : Ir.instr) =
  match instr with
  | Ir.Const n -> push_op f n
  | Ir.Load i -> push_op f (rd f (f.regs.cfa - 2 - i))
  | Ir.Store i -> wr f (f.regs.cfa - 2 - i) (pop_op f)
  | Ir.Dup -> push_op f (Ivec.top f.ops)
  | Ir.Pop -> ignore (pop_op f)
  | Ir.Bin op ->
      let b = pop_op f in
      let a = pop_op f in
      binop t f op a b
  | Ir.Jump a -> f.regs.pc <- a
  | Ir.JumpIfNot a -> if pop_op f = 0 then f.regs.pc <- a
  | Ir.CallI _ | Ir.Ret | Ir.PushtrapI _ | Ir.PoptrapI | Ir.RaiseI _ | Ir.ReraiseI
  | Ir.PerformI _ | Ir.HandleI _ | Ir.ContinueI | Ir.DiscontinueI _ | Ir.ExtcallI _
  | Ir.Stop ->
      fatal
        (Printf.sprintf "%s inside a straight-line run" (Ir.instr_to_string instr))

let rec exec_instr t =
  if t.fuel <= 0 then fatal "out of fuel";
  t.fuel <- t.fuel - 1;
  bump t slot_ops 1;
  let f = t.current in
  let pc = f.Fiber.regs.pc in
  if pc < 0 || pc >= Array.length t.prog.code then
    fatal (Printf.sprintf "pc %d outside code" pc);
  let instr = t.prog.code.(pc) in
  f.regs.pc <- pc + 1;
  match instr with
  | Ir.Const _ | Ir.Load _ | Ir.Store _ | Ir.Dup | Ir.Pop | Ir.Bin _ | Ir.Jump _
  | Ir.JumpIfNot _ ->
      charge t Costs.basic;
      exec_simple t f instr
  | Ir.CallI fid -> emulate_call t f fid ~ra:f.regs.pc
  | Ir.Ret -> (
      bump t slot_ret 1;
      charge t Costs.ret;
      let result = pop_op f in
      let sf = Vec.pop f.shadow in
      Ivec.truncate f.ops sf.Fiber.sf_ops_base;
      f.regs.sp <- Fiber.sf_cfa f sf;
      f.regs.cfa <- Fiber.sf_caller_cfa f sf;
      f.regs.fn <- sf.sf_caller_fn;
      let ra = sf.sf_ra in
      if ra = Layout.ret_to_parent then fiber_return t result
      else if ra = Layout.main_done then t.result <- Some (Done result)
      else if ra = Layout.cb_done then raise (Cb_return result)
      else begin
        f.regs.pc <- ra;
        push_op f result
      end)
  | Ir.PushtrapI target -> push_trap t f ~hpc:target
  | Ir.PoptrapI -> pop_trap t f
  | Ir.RaiseI id ->
      let payload = pop_op f in
      machine_raise t id payload
  | Ir.ReraiseI ->
      let id = pop_op f in
      let payload = pop_op f in
      machine_raise t id payload
  | Ir.PerformI eid ->
      require_mc t "perform";
      do_perform t eid
  | Ir.HandleI hidx ->
      require_mc t "an effect handler";
      do_handle t hidx
  | Ir.ContinueI ->
      require_mc t "continue";
      let v = pop_op f in
      let kid = pop_op f in
      do_resume t ~raise_instead:None v kid
  | Ir.DiscontinueI exn_id ->
      require_mc t "discontinue";
      let payload = pop_op f in
      let kid = pop_op f in
      do_resume t ~raise_instead:(Some exn_id) payload kid
  | Ir.ExtcallI (cid, nargs) -> (
      count t Counter.Extcall;
      charge t (Costs.extcall t.cfg + Costs.cfun_body);
      if Trace.on () then
        emit_ev t (Tev.Extcall_begin { name = t.prog.cfun_names.(cid) });
      let args = Array.make nargs 0 in
      for i = nargs - 1 downto 0 do
        args.(i) <- pop_op f
      done;
      match t.cfun_impls.(cid) with
      | None ->
          fatal
            (Printf.sprintf "unregistered C function %s" t.prog.cfun_names.(cid))
      | Some impl -> (
          let ctx =
            match t.cfun_ctx with
            | Some ctx -> ctx
            | None ->
                let ctx = { machine = t; callback = run_callback t } in
                t.cfun_ctx <- Some ctx;
                ctx
          in
          match impl ctx args with
          | v ->
              if Trace.on () then
                emit_ev t (Tev.Extcall_end { name = t.prog.cfun_names.(cid) });
              push_op t.current v
          | exception Ocaml_exn (name, payload) -> (
              if Trace.on () then
                emit_ev t (Tev.Extcall_end { name = t.prog.cfun_names.(cid) });
              match Compile.exn_id t.prog name with
              | id -> machine_raise t id payload
              | exception Not_found ->
                  fatal
                    (Printf.sprintf "C function raised unknown exception %s" name))))
  | Ir.Stop -> t.result <- Some (Done (pop_op f))

(* Run an OCaml function from C on the current fiber (§5.3): push a
   context word saving the pre-callback pc, a boundary trap, and blank
   out handler_info for the duration. *)
and run_callback t name args =
  let fid =
    match Hashtbl.find_opt t.prog.fn_ids name with
    | Some fid ->
        if t.prog.fns.(fid).nparams <> Array.length args then
          fatal (Printf.sprintf "callback arity mismatch for %s" name);
        fid
    | None -> fatal (Printf.sprintf "callback to unknown function %s" name)
  in
  count t Counter.Callback;
  charge t (Costs.callback t.cfg);
  let f = t.current in
  make_callback_room t f;
  if Trace.on () then emit_ev t (Tev.Callback_begin { name });
  (* Save and blank the handler for the duration (§5.3): effects
     performed under the callback must not find it.  The parent pointer
     stays — backtraces cross callback boundaries (Fig 1d) — and is
     unreachable for control flow while the boundary trap is live. *)
  let saved_handler = f.Fiber.handler in
  (* context word: the pre-callback pc, for the unwinder *)
  wr f (f.regs.sp - 1) f.regs.pc;
  f.regs.sp <- f.regs.sp - 1;
  push_trap t f ~hpc:Layout.c_trap;
  f.handler <- None;
  let restore () = f.Fiber.handler <- saved_handler in
  (* Pushed after the boundary trap, so an exception that unwinds to it
     drops them with the callee's frame. *)
  Array.iter (push_op f) args;
  emulate_call t f fid ~ra:Layout.cb_done;
  match execute t with
  | () -> fatal "program terminated inside a callback"
  | exception Cb_return v ->
      (* Ret restored sp to the trap address; pop the boundary trap and
         the context word, resuming at the saved pre-callback pc. *)
      let a = f.Fiber.regs.exn_ptr in
      f.regs.exn_ptr <- rd f a;
      f.regs.pc <- rd f (a + 2);
      f.regs.sp <- a + 3;
      Ivec.truncate f.traps (Ivec.length f.traps - 2);
      restore ();
      if Trace.on () then emit_ev t (Tev.Callback_end { name });
      v
  | exception (Ocaml_exn _ as e) ->
      (* machine_raise already popped the trap and the context word *)
      restore ();
      if Trace.on () then emit_ev t (Tev.Callback_end { name });
      raise e

and step t =
  exec_instr t;
  (match t.on_step with Some hook -> hook t | None -> ());
  match t.auditor with Some a -> Audit.tick t a | None -> ()

(* One straight-line run charged at its entry, when the fuel covers it
   all: its fuel, [ops] and [instructions] are what its ops would pay
   one by one, and nothing inside it reads them.  Otherwise one op. *)
and exec_block t =
  let f = t.current in
  let pc = f.Fiber.regs.pc in
  let runs = t.prog.runs in
  let n = if pc >= 0 && pc < Array.length runs then Array.unsafe_get runs pc else 0 in
  if n > 0 && n <= t.fuel then begin
    t.fuel <- t.fuel - n;
    bump t slot_ops n;
    charge t (n * Costs.basic);
    (* Only the run's last op can jump, so pc is set once, before them. *)
    f.regs.pc <- pc + n;
    let code = t.prog.code in
    for i = pc to pc + n - 1 do
      exec_simple t f (Array.unsafe_get code i)
    done
  end
  else exec_instr t

(* Step until the program sets its result; a callback's loop leaves by
   [Cb_return].  The loop is chosen once: without a hook or an auditor
   there is nothing to see between the ops of a run, so it runs by
   blocks; with either, every op is a [step]. *)
and execute t =
  match (t.on_step, t.auditor) with
  | None, None ->
      while t.result = None do
        exec_block t
      done
  | _ ->
      while t.result = None do
        step t
      done

(* ------------------------------------------------------------------ *)
(* Backtraces (ground truth) *)

(* Suspended continuations: every live continuation's fiber chain.
   This is what lets a server take "a backtrace snapshot of all current
   requests" (§6.3.4) — each suspended request is a fiber chain whose
   saved registers the unwinder can start from. *)
let live_continuations t =
  handed_out t;
  let out = ref [] in
  Vec.iteri
    (fun slot k ->
      if k.cont_live && not (Vec.is_empty k.fibers) then
        out := (kid_of ~slot ~gen:k.gen, Vec.to_list k.fibers) :: !out)
    t.conts;
  List.rev !out

let cont_slots t = Vec.length t.conts

let free_cont_slots t = Ivec.length t.free_slots

module Testing = struct
  let slot_of_cont kid = kid land slot_mask

  let max_generation = max_gen

  let free_slots t =
    handed_out t;
    t.free_slots

  let slot_fibers t slot =
    handed_out t;
    (Vec.get t.conts slot).fibers

  let set_slot_generation t slot gen =
    (Vec.get t.conts slot).gen <- gen;
    touch_slot t slot

  let fiber_top t id = Segment.top (Itbl.find t.fibers_live id).seg

  let poke t addr v = Segment.poke (mapped t "Machine.Testing.poke" addr).seg addr v

  let write_word t addr v =
    let f = mapped t "Machine.Testing.write_word" addr in
    wr f addr v;
    touch t f

  let set_chunk_rc t addr n =
    Segment.set_rc (mapped t "Machine.Testing.set_chunk_rc" addr).seg addr n

  let clone_continuation t kid =
    let k = Vec.get t.conts (kid land slot_mask) in
    if not k.cont_live || Vec.is_empty k.fibers then invalid_arg "clone_continuation";
    let copies = copy_chain t k.fibers in
    let slot = capture_slot t in
    let clone = Vec.get t.conts slot in
    Vec.append clone.fibers copies;
    kid_of ~slot ~gen:clone.gen
end

let iter_shadow_backtrace t emit =
  let fn_name i = if i >= 0 then t.prog.fns.(i).fn_name else "?" in
  let rec walk_fiber (f : Fiber.t) idx =
    if idx < 0 then ()
    else begin
      let sf = Vec.get f.shadow idx in
      emit (fn_name sf.Fiber.sf_fn);
      if sf.sf_ra = Layout.ret_to_parent then begin
        match f.parent with
        | Some p -> walk_fiber p (Vec.length p.Fiber.shadow - 1)
        | None -> emit "<captured>"
      end
      else if sf.sf_ra = Layout.cb_done then begin
        emit "<C>";
        walk_fiber f (idx - 1)
      end
      else if sf.sf_ra = Layout.main_done then emit "<main>"
      else walk_fiber f (idx - 1)
    end
  in
  let f = t.current in
  walk_fiber f (Vec.length f.Fiber.shadow - 1)

let shadow_backtrace t =
  let out = ref [] in
  iter_shadow_backtrace t (fun s -> out := s :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Driver *)

let run ?cache ?(cfuns = []) ?on_call ?on_step ?on_perform ?audit
    ?(fuel = 200_000_000) cfg prog =
  let counters = Counter.create () in
  let cache = match cache with Some c -> c | None -> Stack_cache.create () in
  (* A loop, not [Array.map]: its closure would be allocated on every
     run, C functions or none. *)
  let names = prog.Compile.cfun_names in
  let cfun_impls = Array.make (Array.length names) None in
  for i = 0 to Array.length names - 1 do
    cfun_impls.(i) <- List.assoc_opt names.(i) cfuns
  done;
  let t =
    {
      cfg;
      prog;
      t_counters = counters;
      cells = Counter.cells counters;
      cache;
      current = Audit.no_fiber;
      fibers_live = Itbl.create 64;
      by_base = Imap.empty;
      conts = Vec.create ();
      free_slots = Ivec.create ();
      next_base = 16;
      next_id = 0;
      cfun_impls;
      cfun_ctx = None;
      chunk_pool = [];
      chunk_pool_len = 0;
      result = None;
      fuel;
      on_call;
      on_step;
      on_perform;
      auditor = audit;
      unhandled_id = Compile.exn_id prog Compile.unhandled_exn;
      invalid_arg_id = Compile.exn_id prog Compile.invalid_argument_exn;
      divzero_id = Compile.exn_id prog Compile.division_by_zero_exn;
      overflow_id = Compile.exn_id prog Compile.stack_overflow_exn;
    }
  in
  Option.iter (Audit.bind t) audit;
  let main_size =
    match cfg.kind with
    | Config.Stock -> cfg.stock_stack_words
    | Config.Mc -> Layout.preamble_words + cfg.initial_words + cfg.red_zone
  in
  let main =
    new_fiber t ~parent:None ~handler:None ~handler_index:(-1)
      ~bottom_trap:Layout.main_uncaught ~size:main_size
  in
  t.current <- main;
  let outcome =
    match
      emulate_call t main prog.main_index ~ra:Layout.main_done;
      execute t
    with
    | () -> ( match t.result with Some r -> r | None -> Fatal "no result")
    | exception Fatal_error msg -> Fatal msg
    | exception Cb_return _ -> Fatal "callback return outside a callback"
    | exception Ocaml_exn (name, payload) -> Uncaught (name, payload)
  in
  (outcome, counters)
