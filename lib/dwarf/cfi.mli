(** Call-frame information instructions (§5.5).

    DWARF represents the per-pc unwind table as a compact bytecode of
    edits from the start of each function; computing the rule at a pc
    means interpreting the bytecode up to it.  We model the two
    directives the OCaml backend needs for sp-relative frames —
    [DW_CFA_advance_loc] and [DW_CFA_def_cfa_offset] — with the CIE-level
    convention that the return address lives at CFA - 1 word.

    Instructions are serialised to a flat integer "bytecode" so that the
    interpretation cost (the reason perf dumps the stack rather than
    unwinding, §5.5) is observable: the interpreter counts the
    operations it executes, and the precompiled variant of Bastian et
    al. can be compared against it (bench `ablation`). *)

type instruction =
  | Advance_loc of int  (** move the current location forward *)
  | Def_cfa_offset of int  (** CFA = sp + offset from here on *)

type program = instruction list

val op_advance : int
(** The opcode of [Advance_loc] in the encoding. *)

val op_def_cfa_offset : int
(** The opcode of [Def_cfa_offset] in the encoding. *)

val encode : program -> int array
(** Two words per instruction: opcode then operand. *)

val decode : int array -> program
(** @raise Invalid_argument on a malformed encoding. *)

val ra_offset : int
(** Words below the CFA where the return address is stored (1). *)
