(** Growable int arrays.

    An int-only {!Vec}: the backing store is an [int array], so a push,
    pop or set is an unboxed array access with no write barrier, and
    [truncate] and [clear] only move the length.  The fiber machine uses
    it for operand stacks, trap mirrors and its free list of
    continuation slots. *)

type t = { mutable data : int array; mutable len : int }
(** The elements are [data.(0)] to [data.(len - 1)]; the rest of [data]
    is spare capacity.  Exposed so that the machine's dispatch loop can
    push and pop in place: the compiler, without flambda, does not
    inline [push] or [pop] at its default threshold. *)

val create : unit -> t
(** [create ()] is an empty vector. *)

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int
(** @raise Invalid_argument if the index is out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument if the index is out of bounds. *)

val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element.  @raise Invalid_argument on an
    empty vector. *)

val top : t -> int
(** The last element without removing it.  @raise Invalid_argument on an
    empty vector. *)

val clear : t -> unit

val truncate : t -> int -> unit
(** [truncate v n] drops elements so that [length v = n].
    @raise Invalid_argument if [n] is negative or exceeds the length. *)

val append : t -> t -> unit
(** [append v src] pushes every element of [src], in order, growing [v]
    at most once. *)
