(** OCaml text-section size accounting (Fig 5).

    §6.1 defines OTSS as the total size of OCaml text sections in the
    compiled binary, and measures how much the prologue overflow checks
    inflate it: +19 % for the default 16-word red zone, +30 % with no
    red zone, and no further improvement at 32 words.

    For compiled fiber-machine programs we account bytes per emitted
    instruction plus a per-function prologue/epilogue, and add the size
    of an overflow-check sequence for every function the configuration
    requires to be checked (a function is exempt when it is a leaf whose
    frame fits in the red zone, §5.2). *)

val needs_check : red_zone:int -> is_leaf:bool -> frame_words:int -> bool
(** The elision rule of §5.2, shared with the macro-suite OTSS model. *)

val total : Config.t -> Compile.compiled -> int

val checked_functions : Config.t -> Compile.compiled -> int
(** How many functions carry a check under this configuration. *)
