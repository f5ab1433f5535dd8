(** The fiber stack layout of Fig 3a, in words.

    A fiber's variable-size area sits below a fixed preamble at the high
    end of the stack (stacks grow downward):

    {v
      high addresses
        handler_info   : parent pointer + value/exn/effect closures
        context block  : DWARF and GC bookkeeping for callbacks
        forwarding trap: a trap frame that forwards exceptions to the
                         parent fiber
        return pc      : the address the handled computation returns to
                         (switches to the parent and runs clos_hval)
        ... variable-size area for OCaml frames ...
      low addresses (limit; red zone just above it)
    v} *)

val trap_words : int
(** a trap frame is \[handler pc; previous exception pointer\] = 2 *)

val preamble_words : int
(** total words consumed by the preamble above the variable area:
    handler_info (parent + clos_hval + clos_hexn + clos_heffect = 4),
    the context block (saved system stack pointer and flags = 2), the
    forwarding trap (2) and the return pc (1) *)

(** {1 Sentinel return addresses}

    Distinguished values stored in return-address slots; the runtime and
    the DWARF unwinder dispatch on them at segment boundaries. *)

val ret_to_parent : int
(** bottom of a handler fiber: return switches to the parent fiber and
    runs the value closure *)

val cb_done : int
(** bottom of a callback: return hands the value back to C *)

val main_done : int
(** bottom of the main stack: return terminates the program *)

val trap_forward : int
(** handler pc of a fiber's bottom trap: forwards the exception to the
    parent fiber *)

val c_trap : int
(** handler pc of a callback's boundary trap: forwards the exception to
    the calling C function *)

val main_uncaught : int
(** handler pc of the main stack's bottom trap: fatal uncaught
    exception *)

val is_sentinel : int -> bool

