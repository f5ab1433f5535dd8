(** A small Lwt-like promise library.

    The second monadic baseline (§6.3.2 compares against Lwt): promises
    with resolver-style completion, callback chaining in [bind], a
    [pause] queue driven by the scheduler loop, and an MVar built from
    promises.  As in Lwt, computation is structured around callbacks on
    heap-allocated promise records; there is no per-thread stack. *)

type 'a t

type 'a resolver

val return : 'a -> 'a t

val fail : exn -> 'a t

val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

val catch : (unit -> 'a t) -> (exn -> 'a t) -> 'a t

val wait : unit -> 'a t * 'a resolver

val wakeup : 'a resolver -> 'a -> unit
(** @raise Invalid_argument if already resolved. *)

val async : (unit -> unit t) -> unit
(** Run a thread for its side effects; an escaping exception is raised
    by the main loop. *)

val pause : unit -> unit t
(** Cooperative yield: resumes on the next main-loop turn. *)

val join : unit t list -> unit t

val state : 'a t -> [ `Resolved of 'a | `Failed of exn | `Pending ]

val run : 'a t -> 'a
(** Drive the pause queue until the promise resolves.
    @raise Failure on deadlock (pending with an empty pause queue). *)

(** {1 MVar} *)

type 'a mvar

val mvar_empty : unit -> 'a mvar

val mvar_put : 'a mvar -> 'a -> unit t

val mvar_take : 'a mvar -> 'a t
