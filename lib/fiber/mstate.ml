(* The fiber machine's state: what [Machine] runs and [Audit] checks.
   Types, the index modules they need and the continuation encoding. *)

module Vec = Retrofit_util.Vec
module Ivec = Retrofit_util.Ivec

(* Base-address index of live fibers.  Segments are carved out of
   disjoint address ranges (fresh ones at monotonically increasing
   bases; cached ones recycle a previously retired range), so the live
   set is a set of disjoint intervals keyed by base: the fiber owning an
   address, if any, is the one with the greatest base <= addr. *)
module Imap = Map.Make (Int)

(* The live-fiber table, by id.  [Int.hash] is the generic hash, so the
   buckets (and the iteration order) are those of a generic table; the
   key comparison is [Int.equal] rather than a polymorphic compare. *)
module Itbl = Hashtbl.Make (Int)

type outcome = Done of int | Uncaught of string * int | Fatal of string

type cont = { fibers : Fiber.t Vec.t; mutable cont_live : bool; mutable gen : int }
(* A continuation slot.  [fibers] holds the captured chain innermost
   first; a Vec so capture appends in O(1) and resume reads both ends in
   O(1).  A spent one-shot slot goes on the machine's free list and is
   captured into again, keeping its record and its Vec; [gen] counts
   those reuses. *)

(* A continuation value is its slot in the low [slot_bits] bits and the
   slot's generation at capture above them; a slot that reaches
   [max_gen] is retired.  machine.mli, "Continuation slots", says why. *)
let slot_bits = 32

let slot_mask = (1 lsl slot_bits) - 1

let max_gen = (1 lsl 21) - 1

let kid_of ~slot ~gen = slot lor (gen lsl slot_bits)

(* The invariant auditor's state; [Audit] reads and writes it. *)
type audit = {
  mutable a_interval : int;
  mutable a_budget : int; (* passes left before the interval doubles *)
  mutable a_countdown : int;
  mutable a_checks : int;
  mutable a_visits : int; (* fibers, slots and cached segments examined *)
  mutable a_nviolations : int;
  mutable a_violations : (string * string) list; (* newest first, capped *)
  (* What changed since the last pass.  [a_full] marks everything
     changed: set for the first pass, for the pass after one that found
     something, and when a list below overflows.  [a_always_full] marks
     it for every pass: set once a fiber or slot is handed to code
     outside the machine, which may keep it and change it at any step. *)
  mutable a_always_full : bool;
  mutable a_full : bool;
  mutable a_dirty : Fiber.t array; (* fibers the machine mutated *)
  mutable a_ndirty : int;
  mutable a_dirty_slots : int array; (* continuation slots it captured into or spent *)
  mutable a_ndirty_slots : int;
  mutable a_bases : int array; (* base-index keys it added or removed *)
  mutable a_nbases : int;
  mutable a_cache_seen : int; (* the cache's version, plus the machine's own calls *)
  mutable a_last_running : Fiber.t; (* the running fiber at the last pass *)
  mutable a_shared_seen : int; (* [Segment.shared_writes] at the last pass *)
  mutable a_slot_pass : int array; (* slot -> the last pass that examined it *)
  (* Scratch state every pass reuses, so that a passing pass allocates
     nothing.  The two visitors close over the audited machine;
     [Audit.bind] binds them. *)
  mutable a_visit : int -> Fiber.t -> unit; (* one base-index entry *)
  mutable a_visit_cached : Segment.t -> unit; (* one stack-cache entry *)
  mutable a_indexed : int; (* base-index entries visited this pass *)
  mutable a_index_ok : bool;
  (* Captured fiber id -> owning continuation, by open addressing with
     linear probing.  A cell is in use iff its stamp is [a_own_epoch];
     a full pass moves the epoch on and claims every live chain afresh,
     and the passes between keep the map, claiming changed chains and
     dropping freed fibers. *)
  mutable a_own_id : int array;
  mutable a_own_kid : int array;
  mutable a_own_stamp : int array;
  mutable a_own_n : int;
  mutable a_own_epoch : int;
}

type t = {
  cfg : Config.t;
  prog : Compile.compiled;
  t_counters : Retrofit_util.Counter.t;
  cells : int array; (* [Counter.cells t_counters] *)
  cache : Stack_cache.t;
  mutable current : Fiber.t;
  fibers_live : Fiber.t Itbl.t;
  mutable by_base : Fiber.t Imap.t;
  conts : cont Vec.t;
  free_slots : Ivec.t; (* spent one-shot slots; never filled under multishot *)
  mutable next_base : int;
  mutable next_id : int;
  cfun_impls : (ctx -> int array -> int) option array;
  (* Chunk free-list for the segmented and large-reserve policies: the
     backing arrays of stripped extension chunks, all of the policy's
     uniform size, recycled across fibers. *)
  mutable chunk_pool : int array list;
  mutable chunk_pool_len : int;
  mutable result : outcome option;
  mutable fuel : int;
  on_call : (t -> unit) option;
  on_step : (t -> unit) option;
  on_perform : (site:int -> eff:int -> handler:int -> unit) option;
  auditor : audit option;
  unhandled_id : int;
  invalid_arg_id : int;
  divzero_id : int;
  overflow_id : int;
}

and ctx = { machine : t; callback : string -> int array -> int }
