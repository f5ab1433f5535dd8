(** The cross-fiber stack walker (§5.5).

    Starting from the live registers of the current fiber, the walker
    repeatedly computes the CFA from the unwind table, reads the return
    address one word below it, and steps to the caller.  At segment
    boundaries it dispatches on the sentinel return addresses:

    - {e fiber bottom}: follow the fiber's parent pointer (read from the
      handler_info words in stack memory) and resume from the parent's
      saved registers — the paper's "follow the parent_fiber pointer and
      dereference the saved_sp";
    - {e callback bottom}: emit a C-frame marker, recover the
      pre-callback pc from the context word saved at callback entry, and
      continue below the boundary on the same fiber;
    - {e main bottom}: the walk is complete;
    - a fiber whose parent was severed (a captured continuation) ends
      the walk with a [Captured_end].

    The walker only consults the unwind table, stack memory, the fiber
    table and saved registers — never the machine's shadow stack, which
    exists precisely to validate this walk. *)

type entry =
  | Frame of { fn : string; pc : int; cfa : int }
  | C_boundary  (** intervening C frames *)
  | Fiber_boundary of int  (** crossed into the parent fiber with this id *)
  | Main_end
  | Captured_end

exception Unwind_error of string

val backtrace :
  ?interp_ops:int ref -> Table.t -> Retrofit_fiber.Machine.t -> entry list
(** @raise Unwind_error when the tables or memory are inconsistent —
    which the validator treats as a failure. *)

val iter :
  ?interp_ops:int ref ->
  Table.t ->
  Retrofit_fiber.Machine.t ->
  (entry -> unit) ->
  unit
(** [backtrace] one entry at a time, in the same order, without building
    the list.  @raise Unwind_error as [backtrace] does. *)

val snapshot_continuations : Table.t -> Retrofit_fiber.Machine.t -> (int * entry list) list
(** A backtrace for every live continuation, unwound from its suspended
    fiber's saved registers and ending with [Captured_end] at the
    severed parent — the "backtrace snapshot of all current requests"
    §6.3.4 credits effect handlers with enabling (available in Go,
    absent from Lwt/Async because monadic code has no stacks). *)

val name : entry -> string option
(** One entry of {!names}; [None] for a [Fiber_boundary]. *)

val names : entry list -> string list
(** Renders entries in the same format as
    {!Retrofit_fiber.Machine.shadow_backtrace}: function names, ["<C>"],
    ["<captured>"], ["<main>"].  [Fiber_boundary] is transparent, as the
    shadow walk does not mark it. *)

val format : entry list -> string
(** A gdb-style backtrace listing (one [#n] line per frame), as in
    Fig 1d. *)
