(** Simulated I/O channels over the virtual-time event loop.

    Input channels receive lines at scheduled virtual times (a stand-in
    for sockets and files); output channels record what was written and
    when.  Closed channels raise [Sys_error] and exhausted ones
    [End_of_file], matching the standard library behaviour the §3.2
    copy example defends against. *)

type ic

type oc

val make_ic : Evloop.t -> ic

val make_ic_lazy : Evloop.t -> latency:int -> string list -> ic
(** A pull-driven source: each line (and finally EOF) becomes readable
    [latency] virtual ns after the previous one was consumed, like a
    request/response connection.  Blocking readers therefore pay the
    latencies serially while asynchronous readers overlap them — the
    contrast §3.1's asynchronous scheduler exists to exploit. *)

val feed_line : ic -> delay:int -> string -> unit
(** Schedule a line to arrive [delay] virtual ns from now. *)

val feed_eof : ic -> delay:int -> unit
(** Schedule end-of-input; lines scheduled after it are dropped. *)

val readable : ic -> bool
(** A line is buffered, or end-of-input was reached and the buffer is
    empty: a blocking read would not block. *)

val read_line_nonblock : ic -> [ `Line of string | `Eof | `Not_ready ]
(** @raise Sys_error if the channel is closed. *)

val read_line_blocking : ic -> string
(** Advances virtual time until data or EOF arrives — this models a
    blocking read stalling the whole program.
    @raise End_of_file at end of input.
    @raise Sys_error if the channel is closed or input never arrives. *)

val close_in : ic -> unit
(** Idempotent, like [Stdlib.close_in]. *)

val make_oc : Evloop.t -> oc

val write_string : oc -> string -> unit
(** @raise Sys_error if closed. *)

val close_out : oc -> unit

val contents : oc -> string
(** Everything written, in order. *)

val writes : oc -> (int * string) list
(** (virtual time, string) per write, oldest first. *)
