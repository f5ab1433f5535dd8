(** Runtime fibers (§5.2).

    A fiber owns a stack [Segment.t], a parent pointer, the handler
    installed by the [match_with] that created it, and its suspended
    register state.  The machine additionally maintains, per fiber:

    - an operand stack ([ops]) standing in for the values OCaml keeps in
      registers — reserved in the frame size but not stored in stack
      memory;
    - a shadow control stack ([shadow]) recording the ground-truth call
      chain, against which the DWARF unwinder is validated (it is the
      model's analogue of sp-relative addressing and is never consulted
      by the unwinder);
    - a mirror of the in-memory trap chain carrying each trap's operand
      depth ([traps]), restored when an exception unwinds. *)

type regs = {
  mutable pc : int;
  mutable sp : int;
  mutable cfa : int;  (** canonical frame address of the running frame *)
  mutable fn : int;  (** index of the running function, -1 before any call *)
  mutable exn_ptr : int;  (** head of the trap chain; an address *)
}

type shadow_frame = {
  sf_fn : int;
  sf_ra : int;  (** return address (code address or Layout sentinel) *)
  sf_caller_cfa_off : int;  (** the caller's CFA, as an offset (below) *)
  sf_caller_fn : int;
  sf_cfa_off : int;  (** this frame's CFA, as an offset (below) *)
  sf_ops_base : int;  (** operand-stack length at frame entry *)
}
(** The two CFAs are kept as distances below the top of the fiber's
    segment, not as addresses.  Moving a fiber (growth by copying, or a
    multishot clone) shifts all of its addresses by one delta and leaves
    these distances unchanged, so a moved or cloned shadow stack keeps
    its frame records instead of rebuilding every one. *)

type t = {
  id : int;
  mutable seg : Segment.t;
  mutable parent : t option;
  mutable handler : Compile.handle_desc option;
      (** [None] for the main stack and inside callback boundaries *)
  regs : regs;
  ops : Retrofit_util.Ivec.t;
  shadow : shadow_frame Retrofit_util.Vec.t;
  traps : Retrofit_util.Ivec.t;
      (** flat pairs, oldest trap first: trap [i]'s address at [2i], the
          operand depth at its push at [2i + 1] *)
  mutable live : bool;
}

val create : id:int -> seg:Segment.t -> parent:t option ->
  handler:Compile.handle_desc option -> t
(** A fiber with zeroed registers; the machine initialises the preamble
    and register state. *)

val trap_count : t -> int
(** Traps in the mirror. *)

val trap_addr : t -> int -> int
(** [trap_addr f i] is the address of [f]'s [i]th trap, oldest first. *)

val offset_of : t -> int -> int
(** [offset_of f addr] is the distance of [addr] below [f]'s segment
    top, the form a shadow frame stores. *)

val sf_cfa : t -> shadow_frame -> int
(** The address of a frame of [t]'s shadow stack's CFA. *)

val sf_caller_cfa : t -> shadow_frame -> int

val rebase : t -> delta:int -> unit
(** Adjust every stored stack address after the segment moved by
    [delta]: registers and the trap mirror (shadow frames hold offsets,
    which do not move).  The in-memory trap chain is the machine's to
    fix, since it requires memory access. *)
