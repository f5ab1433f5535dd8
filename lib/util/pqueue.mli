(** Binary min-heap priority queue.

    The discrete-event network simulator orders events by timestamp with
    this queue.  Ties are broken by insertion order, which makes event
    execution deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> priority:int -> 'a -> unit
(** O(log n).  Smaller priorities are served first; equal priorities are
    served in insertion order. *)

val min_priority : 'a t -> int
(** The priority {!take} would serve next, without allocating.
    @raise Invalid_argument on an empty queue. *)

val take : 'a t -> 'a
(** Remove the minimum and return its value, without allocating.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum (priority, value); [None] if empty. *)

val peek : 'a t -> (int * 'a) option

val clear : 'a t -> unit
