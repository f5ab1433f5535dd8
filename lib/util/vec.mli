(** Growable arrays.

    A ['a t] is a mutable sequence with amortised O(1) [push] at the end,
    O(1) random access, and O(1) [pop].  Used throughout the runtime model
    for operand stacks, frame tables and event queues. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty vector.  [capacity] pre-sizes the backing
    store; it does not affect [length]. *)

val of_list : 'a list -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]th element.  @raise Invalid_argument if [i] is out
    of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]th element.  @raise Invalid_argument if
    [i] is out of bounds. *)

val push : 'a t -> 'a -> unit

val append : 'a t -> 'a t -> unit
(** [append v src] pushes every element of [src], in order, growing [v]
    at most once. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument on an
    empty vector. *)

val top : 'a t -> 'a
(** The last element without removing it.  @raise Invalid_argument on an
    empty vector. *)

val clear : 'a t -> unit

val truncate : 'a t -> int -> unit
(** [truncate v n] drops elements so that [length v = n].
    @raise Invalid_argument if [n] exceeds the current length. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val map : ('a -> 'b) -> 'a t -> 'b t

val exists : ('a -> bool) -> 'a t -> bool

val copy : 'a t -> 'a t
