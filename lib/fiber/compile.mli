(** Bytecode compiler for the fiber machine.

    Besides code generation, the compiler produces the metadata the
    runtime model needs:

    - per-function frame sizes (return address + locals + the deepest
      nesting of trap frames), which drive the overflow check and the
      red-zone elision decision of §5.2;
    - the leaf-function analysis: a function is a leaf if its body
      performs no calls of any kind, so its stack use is bounded by its
      own frame;
    - CFI edits — for every program point where the distance between the
      stack pointer and the canonical frame address changes (trap pushes
      and pops), an edit is recorded, from which the DWARF builder
      generates unwind tables (§5.5);
    - the text-section size accounting used by the OTSS experiment
      (Fig 5): each instruction has a byte cost, and configurations that
      insert overflow checks pay for them per checked function. *)

type cfn = {
  fn_index : int;
  fn_name : string;
  entry : int;  (** code address of the first instruction *)
  code_end : int;  (** one past the last instruction *)
  nparams : int;
  nlocals : int;  (** params + lets *)
  max_traps : int;  (** deepest static trap nesting *)
  frame_words : int;  (** 1 + nlocals + trap words *)
  is_leaf : bool;
  max_ostack : int;
      (** peak operand-stack depth of any execution through the body,
          by forward dataflow over the instruction range (trap handlers
          entered at their recorded depth + 2 for \[payload; id\]).
          Exposed so the static analyzer can cross-check it instead of
          re-deriving frame metadata from scratch. *)
  cfi_edits : (int * int) list;
      (** (code address, new cfa offset) — the first entry is the
          post-prologue state at [entry] *)
}

type handle_desc = {
  h_body : int;
  h_nargs : int;
  h_retc : int;
  h_exncs : (int * int) list;  (** exception id → function index *)
  h_effcs : (int * int) list;  (** effect id → function index *)
  h_exn_tbl : (int, int) Hashtbl.t;
      (** [h_exncs] as an O(1) dispatch table, built at compile time so
          the runtime's raise path never scans the case list *)
  h_eff_tbl : (int, int) Hashtbl.t;
      (** [h_effcs] as an O(1) dispatch table for the perform path *)
}

type compiled = {
  code : Ir.instr array;
  runs : int array;
      (** [runs.(pc)] is the length of the straight-line run starting at
          [pc], [0] if none does.  A run is [Const], [Load], [Store],
          [Dup], [Pop] and non-trapping [Bin] instructions, ending with
          and including the first [Jump], [JumpIfNot] or [Bin Div]/[Bin
          Mod]; it never crosses a function's end.  None of its
          instructions emits an event, calls a hook or switches fiber,
          and only its last can raise, so {!Machine.run} charges a whole
          run at its entry.  It describes [code] as compiled: code
          patched afterwards must keep each run's instructions simple
          and any jump last. *)
  fns : cfn array;
  handles : handle_desc array;
  exn_names : string array;
  eff_names : string array;
  cfun_names : string array;
  fn_ids : (string, int) Hashtbl.t;
      (** function name → index; the callback entry path uses this
          instead of scanning [fns] *)
  exn_ids : (string, int) Hashtbl.t;  (** exception label → id *)
  eff_ids : (string, int) Hashtbl.t;  (** effect label → id *)
  main_index : int;
}

exception Error of string

val compile : Ir.program -> compiled
(** @raise Error on unknown functions, arity mismatches, or a missing
    main. *)

val function_at : compiled -> int -> cfn option
(** The function whose code range contains the given address, by binary
    search over the (sorted, disjoint) code ranges — O(log n). *)

val exn_id : compiled -> string -> int
(** O(1). @raise Not_found if the program never mentions the label. *)

val exn_name : compiled -> int -> string

val eff_id : compiled -> string -> int

val disassemble : compiled -> string

(** {1 Built-in exception labels}

    These are interned in every program so the runtime can raise them. *)

val unhandled_exn : string

val invalid_argument_exn : string

val division_by_zero_exn : string

val stack_overflow_exn : string
