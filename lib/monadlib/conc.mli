(** A Poor Man's Concurrency Monad (Claessen 1999).

    The paper's CPS baseline (§6.2, §6.3): threads are continuations
    allocated on the heap, scheduled round-robin from a queue of
    actions.  The downsides the paper lists — heap allocation of
    continuation frames, GC pressure, no stack for backtraces — are
    inherent to this representation and are what the effect-handler
    comparison measures.

    The scheduler is single-threaded and non-reentrant: one [run] (or
    one {!start}ed stepper) at a time. *)

type 'a t

val return : 'a -> 'a t

val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

val atom : (unit -> 'a) -> 'a t
(** Run an effectful computation as one atomic step. *)

val yield : unit t
(** Go to the back of the run queue. *)

val fork : unit t -> unit t
(** Start a concurrent thread. *)

(** {1 MVars} *)

type 'a mvar

val mvar_empty : unit -> 'a mvar

val mvar_full : 'a -> 'a mvar

val put : 'a mvar -> 'a -> unit t
(** Parks the thread while the MVar is full. *)

val take : 'a mvar -> 'a t
(** Parks the thread while the MVar is empty. *)

val poll : 'a mvar -> 'a option
(** External non-blocking take, for driving a generator from outside
    the monad; never parks. *)

(** {1 Running} *)

val run : unit t -> unit
(** Drive the thread and all its forks to completion (or to a state
    where every thread is parked, which simply ends the run). *)

val run_main : 'a t -> 'a option
(** [run] a computation and return its result, [None] if it never
    finished (deadlock). *)

type stepper

val start : unit t -> stepper

val step : stepper -> bool
(** Execute one scheduled action; false when the queue is empty. *)
