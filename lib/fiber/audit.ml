(* The runtime invariant auditor (see audit.mli for what it checks and
   when).  A pass that finds nothing allocates nothing: diagnostics are
   formatted only on failure, the walks are loops or visitors bound
   once per run, and the change lists and the ownership map are scratch
   space in the [audit] record. *)

open Mstate

type audit = Mstate.audit

let max_recorded_violations = 20

(* The schedule: every step, until [audit_soft_cap] passes have run at
   one interval; then the interval doubles. *)
let audit_soft_cap = 50_000

(* Changes of one kind a pass can list; past this many the pass runs in
   full.  The lists start small and double up to it. *)
let change_cap = 1024

let grown arr n fill =
  let bigger = Array.make (max 8 (2 * n)) fill in
  Array.blit arr 0 bigger 0 n;
  bigger

let no_fiber =
  Fiber.create ~id:(-1) ~seg:(Segment.create ~base:0 ~size:1) ~parent:None ~handler:None

let audit () =
  {
    a_interval = 1;
    a_budget = audit_soft_cap;
    a_countdown = 1;
    a_checks = 0;
    a_visits = 0;
    a_nviolations = 0;
    a_violations = [];
    a_always_full = false;
    a_full = true;
    a_dirty = Array.make 8 no_fiber;
    a_ndirty = 0;
    a_dirty_slots = Array.make 8 0;
    a_ndirty_slots = 0;
    a_bases = Array.make 8 0;
    a_nbases = 0;
    a_cache_seen = 0;
    a_last_running = no_fiber;
    a_shared_seen = 0;
    a_slot_pass = [||];
    a_visit = (fun _ _ -> ());
    a_visit_cached = ignore;
    a_indexed = 0;
    a_index_ok = true;
    a_own_id = Array.make 64 0;
    a_own_kid = Array.make 64 0;
    a_own_stamp = Array.make 64 0;
    a_own_n = 0;
    a_own_epoch = 0;
  }

let audit_checks a = a.a_checks

let audit_visits a = a.a_visits

let audit_violation_count a = a.a_nviolations

let audit_violations a = List.rev a.a_violations

let audit_ok a = a.a_nviolations = 0

let audit_fail a inv detail =
  a.a_nviolations <- a.a_nviolations + 1;
  if List.length a.a_violations < max_recorded_violations then
    a.a_violations <- (inv, detail) :: a.a_violations

(* What the next pass must look at, recorded by the machine at each
   mutation site. *)
let note_dirty a f =
  if not a.a_full then begin
    let n = a.a_ndirty in
    if n > 0 && a.a_dirty.(n - 1) == f then ()
    else if n = change_cap then a.a_full <- true
    else begin
      if n = Array.length a.a_dirty then a.a_dirty <- grown a.a_dirty n no_fiber;
      a.a_dirty.(n) <- f;
      a.a_ndirty <- n + 1
    end
  end

(* Called before the machine adds or removes base-index key [b]: a fiber
   the change displaces is changed too. *)
let note_base t a b =
  if not a.a_full then begin
    if Imap.mem b t.by_base then note_dirty a (Imap.find b t.by_base);
    let n = a.a_nbases in
    if n = change_cap then a.a_full <- true
    else begin
      if n = Array.length a.a_bases then a.a_bases <- grown a.a_bases n 0;
      a.a_bases.(n) <- b;
      a.a_nbases <- n + 1
    end
  end

let note_slot a slot =
  if not a.a_full then begin
    let n = a.a_ndirty_slots in
    if n = change_cap then a.a_full <- true
    else begin
      if n = Array.length a.a_dirty_slots then
        a.a_dirty_slots <- grown a.a_dirty_slots n 0;
      a.a_dirty_slots.(n) <- slot;
      a.a_ndirty_slots <- n + 1
    end
  end

let note_cache a = a.a_cache_seen <- a.a_cache_seen + 1

let note_handed_out a =
  a.a_always_full <- true;
  a.a_full <- true

let fiber_where (f : Fiber.t) = Printf.sprintf "fiber %d" f.Fiber.id

let registered t (f : Fiber.t) =
  match Itbl.find t.fibers_live f.Fiber.id with
  | g -> g == f
  | exception Not_found -> false

(* Whether a callback boundary trap is live on [f], from mirror entry
   [i] on. *)
let rec has_c_trap (f : Fiber.t) i =
  i < Fiber.trap_count f
  && (Segment.read f.seg (Fiber.trap_addr f i + 1) = Layout.c_trap
     || has_c_trap f (i + 1))

(* The in-memory trap chain from [addr], the [i]th trap from the head,
   is strictly increasing, lies in the used region, and matches the
   mirror Vec trap for trap. *)
let rec audit_trap_chain a (f : Fiber.t) ~top addr i =
  let nmirror = Fiber.trap_count f in
  if addr = 0 then begin
    if i <> nmirror then
      audit_fail a "trap-chain"
        (Printf.sprintf "%s: chain has %d traps but mirror has %d" (fiber_where f) i
           nmirror)
  end
  else if i >= nmirror then
    audit_fail a "trap-chain"
      (fiber_where f ^ ": in-memory trap chain longer than mirror")
  else begin
    let maddr = Fiber.trap_addr f (nmirror - 1 - i) in
    if maddr <> addr then
      audit_fail a "trap-chain"
        (Printf.sprintf "%s: trap %d at address %d but mirror says %d" (fiber_where f) i
           addr maddr);
    if addr < f.regs.sp || addr + 1 >= top then
      audit_fail a "trap-chain"
        (Printf.sprintf "%s: trap address %d outside [sp=%d, top)" (fiber_where f) addr
           f.regs.sp);
    let next = Segment.read f.seg addr in
    if next <> 0 && next <= addr then
      audit_fail a "trap-chain"
        (Printf.sprintf "%s: trap chain not strictly increasing at %d" (fiber_where f)
           addr)
    else audit_trap_chain a f ~top next (i + 1)
  end

let audit_fiber t a (f : Fiber.t) =
  let top = Segment.top f.seg and base = Segment.base f.seg in
  if not f.live then
    audit_fail a "liveness" (fiber_where f ^ " registered but marked dead");
  (* Fig 3a handler_info: parent-id word mirrors the parent pointer. *)
  let parent_word = Segment.read f.seg (top - 1) in
  let expect_parent = match f.parent with Some p -> p.Fiber.id | None -> -1 in
  if parent_word <> expect_parent then
    audit_fail a "layout-parent"
      (Printf.sprintf "%s: parent word %d but fiber record says %d" (fiber_where f)
         parent_word expect_parent);
  (* Fig 3a handler_info: the handler word names the installed handler;
     -1 on the main stack.  A callback boundary blanks the record while
     its boundary trap is live, leaving the word in place. *)
  let handler_word = Segment.read f.seg (top - 2) in
  (match f.handler with
  | Some h ->
      if
        handler_word < 0
        || handler_word >= Array.length t.prog.handles
        || not (t.prog.handles.(handler_word) == h)
      then
        audit_fail a "layout-handler"
          (Printf.sprintf "%s: handler word %d does not name the installed handler"
             (fiber_where f) handler_word)
  | None ->
      if handler_word <> -1 && not (has_c_trap f 0) then
        audit_fail a "layout-handler"
          (Printf.sprintf
             "%s: no handler installed but handler word is %d and no callback \
              boundary is live"
             (fiber_where f) handler_word));
  (* Saved registers stay inside the segment, frame address above sp. *)
  if f.regs.sp < base || f.regs.sp > top then
    audit_fail a "layout-sp"
      (Printf.sprintf "%s: sp %d outside [%d, %d]" (fiber_where f) f.regs.sp base top);
  if f.regs.cfa < f.regs.sp || f.regs.cfa > top then
    audit_fail a "layout-cfa"
      (Printf.sprintf "%s: cfa %d outside [sp=%d, %d]" (fiber_where f) f.regs.cfa
         f.regs.sp top);
  audit_trap_chain a f ~top f.regs.exn_ptr 0

(* The table-driven index check.  A pass runs it only when the fused
   walk below finds something, to report in its terms and order. *)
let audit_index t a =
  let nlive = Itbl.length t.fibers_live in
  let nindexed = Imap.cardinal t.by_base in
  if nlive <> nindexed then
    audit_fail a "addr-index"
      (Printf.sprintf "%d live fibers but %d indexed bases" nlive nindexed);
  Itbl.iter
    (fun _ (f : Fiber.t) ->
      match Imap.find_opt (Segment.base f.seg) t.by_base with
      | Some g when g == f -> ()
      | _ ->
          audit_fail a "addr-index"
            (Printf.sprintf "fiber %d missing from the base index" f.id))
    t.fibers_live

(* One base-index entry of the fused walk: the entry names a registered
   fiber at its own base, and that fiber's layout holds.  If every entry
   does and there are as many entries as live fibers, the index is a
   bijection onto the live table, which is what [audit_index] checks,
   and the walk has audited every live fiber exactly once. *)
let audit_visit t a base (f : Fiber.t) =
  a.a_visits <- a.a_visits + 1;
  a.a_indexed <- a.a_indexed + 1;
  if Segment.base f.seg = base && registered t f then audit_fiber t a f
  else a.a_index_ok <- false

(* [mem] first: most cached bases index no live fiber, and raising
   [Not_found] for each costs more than a second lookup. *)
let audit_cached t a seg =
  a.a_visits <- a.a_visits + 1;
  let base = Segment.base seg in
  if Imap.mem base t.by_base then begin
    let f = Imap.find base t.by_base in
    if f.Fiber.seg == seg then
      audit_fail a "cache-alias"
        (Printf.sprintf "cached segment at base %d is fiber %d's live stack" base
           f.Fiber.id)
  end

(* Whether live continuation [kid] still holds [f]. *)
let rec chain_has fibers (f : Fiber.t) i =
  i < Vec.length fibers && (Vec.get fibers i == f || chain_has fibers f (i + 1))

let holds t kid f =
  let slot = kid land slot_mask in
  slot < Vec.length t.conts
  &&
  let k = Vec.get t.conts slot in
  k.cont_live && k.gen = kid lsr slot_bits && chain_has k.fibers f 0

(* The ownership map's cell for fiber [id]: its entry, or the free cell
   that ends its probe run. *)
let rec own_cell a id i =
  if a.a_own_stamp.(i) <> a.a_own_epoch || a.a_own_id.(i) = id then i
  else own_cell a id ((i + 1) land (Array.length a.a_own_id - 1))

let own_home a id = own_cell a id (id land (Array.length a.a_own_id - 1))

let own_set a i id kid =
  a.a_own_stamp.(i) <- a.a_own_epoch;
  a.a_own_id.(i) <- id;
  a.a_own_kid.(i) <- kid

(* Keep the load at most one half: double and re-insert.  Sized to the
   most fibers held at once so far, then never again. *)
let own_grow a =
  let ids = a.a_own_id and kids = a.a_own_kid and stamps = a.a_own_stamp in
  let n = 2 * Array.length ids in
  a.a_own_id <- Array.make n 0;
  a.a_own_kid <- Array.make n 0;
  a.a_own_stamp <- Array.make n 0;
  Array.iteri
    (fun i stamp ->
      if stamp = a.a_own_epoch then own_set a (own_home a ids.(i)) ids.(i) kids.(i))
    stamps

(* Record [kid] as [f]'s owner.  Returns the other live continuation
   that still holds [f], or -1. *)
let own_claim t a (f : Fiber.t) kid =
  if 2 * (a.a_own_n + 1) > Array.length a.a_own_id then own_grow a;
  let i = own_home a f.id in
  if a.a_own_stamp.(i) <> a.a_own_epoch then begin
    own_set a i f.id kid;
    a.a_own_n <- a.a_own_n + 1;
    -1
  end
  else begin
    let kid' = a.a_own_kid.(i) in
    if kid' <> kid && holds t kid' f then kid'
    else begin
      a.a_own_kid.(i) <- kid;
      -1
    end
  end

let own_find a id =
  let i = own_home a id in
  if a.a_own_stamp.(i) = a.a_own_epoch then a.a_own_kid.(i) else -1

(* Shift the rest of a probe run back over the hole at [hole], so every
   remaining entry stays reachable from its home cell. *)
let rec own_shift a hole j =
  let mask = Array.length a.a_own_id - 1 in
  let j = (j + 1) land mask in
  if a.a_own_stamp.(j) <> a.a_own_epoch then a.a_own_stamp.(hole) <- 0
  else if (j - (a.a_own_id.(j) land mask)) land mask >= (j - hole) land mask then begin
    own_set a hole a.a_own_id.(j) a.a_own_kid.(j);
    own_shift a j j
  end
  else own_shift a hole j

let own_remove a id =
  let i = own_home a id in
  if a.a_own_stamp.(i) = a.a_own_epoch then begin
    a.a_own_n <- a.a_own_n - 1;
    own_shift a i i
  end

let audit_chain t a kid fibers =
  let n = Vec.length fibers in
  a.a_visits <- a.a_visits + n;
  for i = 0 to n - 1 do
    let f : Fiber.t = Vec.get fibers i in
    let kid' = own_claim t a f kid in
    if kid' >= 0 then
      audit_fail a "one-shot"
        (Printf.sprintf "fiber %d captured by live continuations %d and %d" f.id kid'
           kid);
    if not f.live then
      audit_fail a "one-shot"
        (Printf.sprintf "continuation %d holds dead fiber %d" kid f.id);
    if f == t.current then
      audit_fail a "one-shot"
        (Printf.sprintf "continuation %d holds the running fiber %d" kid f.id);
    if not (registered t f) then
      audit_fail a "one-shot"
        (Printf.sprintf "continuation %d holds unregistered fiber %d" kid f.id);
    let linked =
      match f.parent with
      | None -> i = n - 1
      | Some p -> i < n - 1 && p == Vec.get fibers (i + 1)
    in
    if not linked then
      audit_fail a "cont-chain"
        (Printf.sprintf "continuation %d: fiber %d parent link broken" kid f.id)
  done

(* A live slot holds a well-formed chain, a spent one holds no fibers. *)
let audit_slot t a slot =
  a.a_visits <- a.a_visits + 1;
  let k = Vec.get t.conts slot in
  if k.cont_live then audit_chain t a (kid_of ~slot ~gen:k.gen) k.fibers
  else if not (Vec.is_empty k.fibers) then
    audit_fail a "cont-free"
      (Printf.sprintf "spent continuation slot %d still holds %d fibers" slot
         (Vec.length k.fibers))

(* Every free-list entry names a spent slot. *)
let audit_free_list t a =
  let nslots = Vec.length t.conts in
  for i = 0 to Ivec.length t.free_slots - 1 do
    let slot = Ivec.get t.free_slots i in
    if slot < 0 || slot >= nslots then
      audit_fail a "cont-free"
        (Printf.sprintf "free list names slot %d of %d" slot nslots)
    else if (Vec.get t.conts slot).cont_live then
      audit_fail a "cont-free"
        (Printf.sprintf "continuation slot %d is live but on the free list" slot)
  done

(* [audit_slot], at most once in a change-driven pass: many changed
   fibers can name one owner. *)
let rec audit_slot_once t a slot =
  let seen = a.a_slot_pass in
  if slot >= Array.length seen then begin
    a.a_slot_pass <- grown seen (Array.length seen) 0;
    audit_slot_once t a slot
  end
  else if seen.(slot) <> a.a_checks then begin
    seen.(slot) <- a.a_checks;
    audit_slot t a slot
  end

let audit_running t a ~live =
  if t.current.Fiber.id >= 0 && not live then
    audit_fail a "liveness" "the running fiber is not registered live"

(* Everything marked changed: every live fiber, cached segment and
   continuation slot. *)
let audit_everything t a =
  a.a_own_epoch <- a.a_own_epoch + 1;
  a.a_own_n <- 0;
  audit_running t a ~live:(registered t t.current);
  (* One walk over the base index checks the index and every live
     fiber.  If it finds anything, its reports are dropped and the
     table-driven walk redone, so a failing pass reports exactly what,
     and in the order, the table-driven walk does. *)
  let n0 = a.a_nviolations and v0 = a.a_violations in
  a.a_indexed <- 0;
  a.a_index_ok <- true;
  Imap.iter a.a_visit t.by_base;
  if
    (not a.a_index_ok)
    || a.a_indexed <> Itbl.length t.fibers_live
    || a.a_nviolations <> n0
  then begin
    a.a_nviolations <- n0;
    a.a_violations <- v0;
    audit_index t a;
    Itbl.iter (fun _ f -> audit_fiber t a f) t.fibers_live
  end;
  if Stack_cache.population t.cache > 0 then Stack_cache.iter t.cache a.a_visit_cached;
  for slot = 0 to Vec.length t.conts - 1 do
    audit_slot t a slot
  done;
  audit_free_list t a

(* One changed fiber.  Registered, it must pass the fiber checks, sit in
   the base index at its own base and not be in the stack cache.  If the
   continuation that owns it is still live, that chain is checked again.
   A freed fiber leaves the ownership map, and so does an entry whose
   continuation was spent since: the spend was recorded and its slot
   examined then, and a later capture into the slot is examined as its
   own change. *)
let audit_fiber_changed t a (f : Fiber.t) ~live =
  a.a_visits <- a.a_visits + 1;
  if live then begin
    audit_fiber t a f;
    let b = Segment.base f.seg in
    if not (Imap.mem b t.by_base && Imap.find b t.by_base == f) then
      audit_fail a "addr-index"
        (Printf.sprintf "fiber %d missing from the base index" f.id);
    if Segment.cached f.seg > 0 then
      audit_fail a "cache-alias"
        (Printf.sprintf "fiber %d's live stack is in the stack cache" f.id)
  end;
  let kid = own_find a f.id in
  if kid >= 0 then begin
    let slot = kid land slot_mask in
    let k = Vec.get t.conts slot in
    let current = k.cont_live && k.gen = kid lsr slot_bits in
    if (not live) || not current then own_remove a f.id;
    if current then audit_slot_once t a slot
  end

(* A base-index key the machine added or removed: if it is indexed, it
   names a registered fiber at that base whose stack is not cached. *)
let audit_base t a b =
  if Imap.mem b t.by_base then begin
    let f = Imap.find b t.by_base in
    a.a_visits <- a.a_visits + 1;
    if
      (not (Segment.base f.Fiber.seg = b && registered t f)) || Segment.cached f.seg > 0
    then
      audit_fail a "addr-index" (Printf.sprintf "base %d indexes fiber %d" b f.id)
  end

let rec is_dirty a f i =
  i < a.a_ndirty && (a.a_dirty.(i) == f || is_dirty a f (i + 1))

let audit_changes t a =
  let cur = t.current in
  (* Still running since the last pass, and not touched: only its
     registers, words and trap chain can have moved. *)
  if cur == a.a_last_running && not (is_dirty a cur 0) then begin
    a.a_visits <- a.a_visits + 1;
    audit_fiber t a cur
  end
  else begin
    let live = registered t cur in
    audit_running t a ~live;
    audit_fiber_changed t a cur ~live
  end;
  (* A list entry naming the running fiber again is skipped. *)
  for i = 0 to a.a_ndirty - 1 do
    let f = a.a_dirty.(i) in
    if f != cur then audit_fiber_changed t a f ~live:(registered t f)
  done;
  for i = 0 to a.a_nbases - 1 do
    audit_base t a a.a_bases.(i)
  done;
  if Stack_cache.version t.cache <> a.a_cache_seen then
    Stack_cache.iter t.cache a.a_visit_cached;
  for i = 0 to a.a_ndirty_slots - 1 do
    audit_slot_once t a a.a_dirty_slots.(i)
  done;
  if a.a_ndirty_slots > 0 then audit_free_list t a

let audit_machine t a =
  a.a_checks <- a.a_checks + 1;
  let n0 = a.a_nviolations and v0 = a.a_violations in
  if a.a_full || Segment.shared_writes () <> a.a_shared_seen then audit_everything t a
  else begin
    audit_changes t a;
    if a.a_nviolations <> n0 then begin
      let first = a.a_violations in
      a.a_nviolations <- n0;
      a.a_violations <- v0;
      audit_everything t a;
      (* What the change-driven pass found, the full walk must find too:
         anything else is the auditor's own fault. *)
      if a.a_nviolations = n0 then
        audit_fail a "audit-redo"
          (match first with
          | (inv, detail) :: _ when first != v0 ->
              Printf.sprintf "a change-driven pass found %s (%s), the full walk nothing"
                inv detail
          | _ -> "a change-driven pass found what the full walk did not")
    end
  end;
  a.a_full <- a.a_always_full || a.a_nviolations <> n0;
  (* Drop the references, so a freed fiber is not kept alive here. *)
  Array.fill a.a_dirty 0 a.a_ndirty no_fiber;
  a.a_ndirty <- 0;
  a.a_nbases <- 0;
  a.a_ndirty_slots <- 0;
  a.a_cache_seen <- Stack_cache.version t.cache;
  a.a_shared_seen <- Segment.shared_writes ();
  a.a_last_running <- t.current

let bind t a =
  a.a_visit <- (fun base f -> audit_visit t a base f);
  a.a_visit_cached <- (fun seg -> audit_cached t a seg);
  a.a_full <- true

(* Audited invariants hold between steps of a running machine; after
   the final step (result set) the unwinder legitimately leaves cfa
   pointing at the frame that raised, below the popped trap. *)
let tick t a =
  match t.result with
  | Some _ -> ()
  | None ->
      a.a_countdown <- a.a_countdown - 1;
      if a.a_countdown <= 0 then begin
        a.a_budget <- a.a_budget - 1;
        if a.a_budget <= 0 then begin
          a.a_interval <- a.a_interval * 2;
          a.a_budget <- audit_soft_cap
        end;
        a.a_countdown <- a.a_interval;
        audit_machine t a
      end

module Testing = struct
  let full_audit () = { (audit ()) with a_always_full = true }
end
