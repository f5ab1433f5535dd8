(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (workload generators, the
    network simulator, property tests that need auxiliary randomness) draw
    from explicitly seeded generators so that every experiment is exactly
    repeatable.  The implementation is xoshiro256** seeded via splitmix64,
    the combination recommended by Blackman and Vigna.

    The 256-bit state is one 32-byte [Bytes.t], read and written as
    four unboxed 64-bit words, so a draw allocates nothing of its own:
    {!int}, {!bool} and {!shuffle} allocate nothing at all, {!float} and
    {!exponential} at most the float they return (none where the
    caller's code unboxes it), and {!bits64} its [int64] box.
    [test util.alloc] pins these figures. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val split : t -> t
(** A new generator whose stream is independent of (but determined by) the
    parent's current state.  Advances the parent. *)

val bits64 : t -> int64
(** The next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** The lowest bit of the next 64. *)

val exponential : t -> mean:float -> float
(** A draw from the exponential distribution with the given mean; used for
    Poisson arrival processes in the load generator. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
