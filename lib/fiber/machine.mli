(** The fiber machine: an executable model of the runtime of §5.

    The machine executes compiled bytecode over word-addressed stack
    segments.  Under the [Stock] configuration it behaves like stock
    OCaml (§2): one contiguous stack, no overflow checks, linked trap
    frames, direct external calls; effect instructions are a fatal
    error.  Under [Mc] it implements the full design of §5:
    heap-allocated fibers with the Fig 3a layout, prologue overflow
    checks with red-zone elision, growth by copy-and-double with pointer
    rebasing, a stack cache, continuation capture without copying
    (linked fibers), one-shot enforcement, reperform chains, callbacks
    on the current fiber with saved handler_info, and exception
    forwarding across both fiber and C boundaries.

    Every run returns the cost counters; the "instructions" counter is
    the weighted total defined by {!Costs} and backs the Table 1
    instruction-count experiment. *)

type outcome =
  | Done of int
  | Uncaught of string * int  (** exception label and payload *)
  | Fatal of string
      (** a state the real runtime cannot reach or does not support,
          e.g. effect handlers under the stock configuration *)

type t

(** Context handed to host-implemented C functions. *)
type ctx = {
  machine : t;
  callback : string -> int array -> int;
      (** call back into an OCaml function by name; OCaml exceptions
          escaping the callback propagate as {!Ocaml_exn} *)
}

exception Ocaml_exn of string * int
(** Raised inside C-function implementations when an OCaml exception
    crosses the callback boundary; re-raise it (or let it escape) to
    forward the exception to the OCaml caller, as C code does. *)

type cfun = ctx -> int array -> int

val run :
  ?cache:Stack_cache.t ->
  ?cfuns:(string * cfun) list ->
  ?on_call:(t -> unit) ->
  ?on_step:(t -> unit) ->
  ?on_perform:(site:int -> eff:int -> handler:int -> unit) ->
  ?audit:Audit.audit ->
  ?fuel:int ->
  Config.t ->
  Compile.compiled ->
  outcome * Retrofit_util.Counter.t
(** Executes the program's main function.  [cfuns] supplies C-function
    implementations by name; a program calling an unregistered name
    fails with [Fatal].  [on_call] runs after every call frame is
    established — the hook the DWARF validator uses.  [on_step] runs
    after every executed instruction (including those inside callbacks)
    — the hook the sampling profiler hangs its interval countdown on.
    [on_perform] fires once per dynamic perform with the PerformI pc
    ([site]), the effect id, and the identity of the handler clause
    that receives it: the handle-spec index of the matching handler
    fiber, or [-1] when the effect crosses a handler-less boundary and
    the runtime raises [Unhandled] — the hook the analyzer soundness
    campaign records dispatch targets with.
    [audit] enables per-step invariant checking.  [fuel] bounds the
    executed operation count (default 200 million).

    When the eventlog is enabled ({!Retrofit_trace.Trace.on}), the
    machine emits fiber lifecycle, switch, effect, handler and FFI
    boundary events stamped with the cumulative "instructions" cost.
    Disabled, every site is a single untaken branch: no counter moves
    and the frozen cost tables stay bit-identical. *)

(** {1 Introspection (for the unwinder, the validator and tests)} *)

val compiled : t -> Compile.compiled

val config : t -> Config.t

val counters : t -> Retrofit_util.Counter.t

val current_fiber : t -> Fiber.t

val fiber_by_id : t -> int -> Fiber.t option

val fiber_of_addr : t -> int -> Fiber.t option
(** The live fiber whose segment contains the address — O(log n) in the
    live-fiber count via a base-address interval index that is updated
    on allocation, free and growth.  Each lookup increments the
    [addr_index_probe] counter. *)

val current_id : t -> int
(** The running fiber's id. *)

val saved_pc : t -> int -> int
(** [saved_pc m id] is live fiber [id]'s program counter.
    @raise Not_found if no live fiber has that id. *)

val saved_sp : t -> int -> int
(** [saved_sp m id] is live fiber [id]'s stack pointer.
    @raise Not_found if no live fiber has that id. *)

val stack_top_at : t -> int -> int
(** The top of the segment of the live fiber {!fiber_of_addr} finds for
    the address, counted as the same index probe.
    @raise Not_found on an unmapped address.

    These four read what an unwinder needs without handing out a fiber,
    so the auditor has nothing new to watch (see {!Audit}). *)

val read_mem : t -> int -> int
(** Read a word of stack memory.  @raise Invalid_argument on an
    unmapped address. *)

val live_fiber_count : t -> int

val live_continuations : t -> (int * Fiber.t list) list
(** Every live (capturable, not yet resumed) continuation, as its
    value (slot plus generation, see {!cont_slots}) with its fiber
    chain — the suspended requests of a server, each of which the
    unwinder can snapshot (§6.3.4). *)

(** {2 Continuation slots}

    A continuation lives in a slot.  A spent one-shot slot goes on a
    free list and the next capture reuses it, so under one-shot
    execution the slot count is the peak number of continuations held
    at once, not the number of performs.  Each reuse moves the slot one
    generation on, and a continuation value is [slot + gen * 2^32]:
    the slot's index plus its generation at capture.  A value is
    therefore its slot's index until the slot is first reused.
    Resuming a value whose slot has since been reused still raises
    [Invalid_argument] (§3.1).  A slot whose generation reaches
    [2^21 - 1] is retired rather than reused, which keeps every value
    below [2^53], exact in a JSON trace; a one-shot run allocates one
    extra slot per [2^21 - 1] reuses.  Multishot slots are never
    reused.  The same values appear in {!live_continuations} and in the
    [kid] of the trace's [Resume] and [Discontinue] events. *)

val cont_slots : t -> int
(** Slots allocated so far: live, spent and free. *)

val free_cont_slots : t -> int
(** Slots on the free list, waiting to be reused. *)

(** Access to slot state for tests that corrupt it and check that the
    auditor notices.  A running program must not be changed through
    these.  Handing out a slot or the free list here makes every later
    audit pass a full one. *)
module Testing : sig
  val slot_of_cont : int -> int
  (** The slot of a continuation value. *)

  val max_generation : int
  (** The generation at which a spent slot is retired, [2^21 - 1]. *)

  val free_slots : t -> Retrofit_util.Ivec.t
  (** The free list itself, top last. *)

  val slot_fibers : t -> int -> Fiber.t Retrofit_util.Vec.t
  (** The captured chain a slot holds, innermost first; empty once
      spent. *)

  val set_slot_generation : t -> int -> int -> unit
  (** [set_slot_generation m slot gen] sets the slot's generation, so a
      test can reach the retirement cap without [2^21] captures. *)

  val fiber_top : t -> int -> int
  (** [fiber_top m id] is the top of live fiber [id]'s segment, read
      without handing the fiber out.  @raise Not_found if [id] is not
      live. *)

  val poke : t -> int -> int -> unit
  (** [poke m addr v] writes [v] at [addr] with {!Segment.poke}: in
      place, bypassing copy-on-write, so every segment sharing the
      chunk sees it.  @raise Invalid_argument on an unmapped address. *)

  val write_word : t -> int -> int -> unit
  (** [write_word m addr v] writes [v] at [addr] as the machine writes a
      fiber's word, copy-on-write included, and records the fiber as
      changed, as the machine's own writes are.  It hands nothing out.
      @raise Invalid_argument on an unmapped address. *)

  val set_chunk_rc : t -> int -> int -> unit
  (** [set_chunk_rc m addr n] sets the reference count of the chunk
      holding [addr] with {!Segment.set_rc}: a refcounting bug, under
      which a later write lands in place in a chunk other segments
      still map.  @raise Invalid_argument on an unmapped address. *)

  val clone_continuation : t -> int -> int
  (** [clone_continuation m kid] copies live continuation [kid]'s chain
      into a fresh live slot, as a multishot resume copies it, without
      running it; returns the new continuation value.  Under the
      segmented-COW policy the copies share their source's chunks, so a
      test can hold two suspended sharers.
      @raise Invalid_argument if [kid]'s slot is spent. *)
end

val shadow_backtrace : t -> string list
(** Ground truth: function names from the innermost frame outwards,
    crossing fiber boundaries via parent pointers and marking callback
    boundaries with ["<C>"]; ends with ["<main>"]. *)

val iter_shadow_backtrace : t -> (string -> unit) -> unit
(** [shadow_backtrace] one name at a time, in the same order, without
    building the list. *)
