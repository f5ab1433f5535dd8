(** Monotonic wall-clock time in nanoseconds. *)

val now_ns : unit -> int64

val elapsed_ns : (unit -> 'a) -> 'a * int64
(** Run the thunk and return its result with the elapsed time. *)
