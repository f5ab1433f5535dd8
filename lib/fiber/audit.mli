(** The runtime invariant auditor.

    An auditor re-checks the structural invariants of §5 between
    machine steps (including steps taken inside callbacks):

    - the Fig 3a handler_info words (parent id at [top-1], handler
      index at [top-2]) mirror the fiber records, allowing for the
      blanked handler of a live callback boundary;
    - saved registers stay inside the segment and [cfa >= sp];
    - the in-memory trap chain is strictly increasing, lies in the used
      region, and matches the mirror Vec trap for trap;
    - the base-address index covers exactly the live fibers;
    - no stack-cache entry is aliased by a live fiber's stack;
    - live continuations hold pairwise-disjoint chains of live,
      registered, correctly parent-linked fibers, none of which is the
      running fiber (one-shot linearity);
    - a spent continuation slot holds no fibers, and every entry of
      the free list names a spent slot;
    - every prologue overflow check is emitted or elided exactly when
      {!Otss.needs_check} says so (checked at call time, not on the
      audit interval).

    Violations are recorded rather than fatal so a conformance run can
    report them alongside outcome differences.

    {b Schedule.}  A pass runs after every step until 50,000 passes
    have run, then every second step for the next 50,000, then every
    fourth, and so on: runs up to 50k steps are audited at full
    density, longer ones logarithmically.  The schedule is fixed, so
    the pass count is a function of the step count alone.

    {b What a pass examines.}  Every pass establishes every invariant
    over all live state, but it examines only what changed since the
    last pass; the rest passed then and is as it was.  Changed means:

    - the running fiber;
    - whatever the machine mutated: fibers it allocated, freed, grew,
      cloned, switched away from or re-parented, the base-index keys
      that moved with them (and any fiber a key change displaced), the
      segments it offered the stack cache, and the continuation slots
      it captured into or spent (with the free list);
    - everything, at every pass from then on, once anything is handed
      to code outside the machine, which may keep it and change it: a
      fiber returned by {!Machine.current_fiber}, {!Machine.fiber_by_id},
      {!Machine.fiber_of_addr} or {!Machine.live_continuations}, or a slot or the free
      list {!Machine.Testing} exposes;
    - the stack cache, in full, when calls the machine did not make
      moved its {!Stack_cache.version};
    - everything, when {!Segment.shared_writes} moved: a write that
      copy-on-write did not separate may have changed any sharer.

    A changed fiber gets the layout and trap-chain checks, its
    registration, its base-index entry, its stack-cache count and the
    chain of the continuation that owns it, if that continuation is
    still live, found in an ownership map the auditor keeps across
    passes; a slot's chain is examined at most once per pass.  A
    running fiber that also ran at the last pass, and was not touched
    since, gets the layout and trap-chain checks alone: nothing else
    about it can have moved.  A pass costs O(D + C + log F) for D
    changes recorded, C fibers in the chains of the slots they name and
    F live fibers, plus S for an S-segment cache that other code
    touched; it does not grow with the live state.  {!audit_visits}
    counts the work.

    The rule trusts that the machine writes only to the running fiber
    and to fibers it records, and that chunk reference counts are
    right.  A refcounting bug that leaves a shared chunk's count at 1
    lets a write through one segmented-COW sharer change another in
    place; the other is reported once something examines it (it runs,
    the machine touches it, or a full pass runs), not at that step as
    a walk over all live state would.

    The first pass, and any pass after more than 1024 recorded changes
    of one kind, marks everything changed.  So does the pass after one
    that found something, and a pass that finds something is redone
    with everything marked changed.  The reports are therefore those of
    an auditor that walks all live state at every pass, up to the limit
    above: same invariants, same details, same order.  A redone pass
    that finds nothing reports [audit-redo]: the change-driven pass
    found what is not there.  A pass that finds nothing allocates
    nothing. *)

type audit = Mstate.audit

val audit : unit -> audit
(** A fresh auditor on the fixed schedule above; {!Machine.run} takes it. *)

val audit_checks : audit -> int
(** Number of audit passes performed. *)

val audit_visits : audit -> int
(** Fibers, continuation slots, the fibers in their chains and cached
    segments the passes examined,
    counting one examined twice in a pass twice.  The auditor's work as
    a deterministic number; it is kept out of the machine's counters, so
    the paper's cost model cannot move with it. *)

val audit_ok : audit -> bool

val audit_violation_count : audit -> int

val audit_violations : audit -> (string * string) list
(** Recorded [(invariant, detail)] pairs, oldest first, capped at 20. *)

(** {1 The machine's side}

    Only {!Machine} calls these.  It records each change as it makes
    it: a fiber it mutated ([note_dirty]), a base-index key it is about
    to add or remove ([note_base]; a fiber the change displaces is
    changed too), a continuation slot it captured into or spent
    ([note_slot]), a [put] or [take] on its stack cache ([note_cache]),
    and a fiber or slot handed to code outside it ([note_handed_out]:
    every later pass marks everything changed). *)

val no_fiber : Fiber.t
(** A placeholder fiber (id -1) that no machine runs or writes, made
    once: the auditor's empty change slots, and a machine's current
    fiber until its main fiber exists. *)

val note_dirty : audit -> Fiber.t -> unit

val note_base : Mstate.t -> audit -> int -> unit

val note_slot : audit -> int -> unit

val note_cache : audit -> unit

val note_handed_out : audit -> unit

val audit_fail : audit -> string -> string -> unit
(** [audit_fail a invariant detail] records a violation the machine
    found itself: a red-zone elision, checked at call time. *)

val bind : Mstate.t -> audit -> unit
(** Attach the auditor to the machine it is about to audit. *)

val tick : Mstate.t -> audit -> unit
(** A step has run: audit if the schedule says so. *)

module Testing : sig
  val full_audit : unit -> audit
  (** An auditor whose every pass marks everything changed: the
      reference the change-driven passes are tested against. *)
end
