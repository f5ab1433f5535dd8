(** Static red-zone soundness audit (§5.2).

    The runtime elides the prologue overflow check of a function that
    is a leaf and whose frame fits in the red zone, trusting the
    compiler's [is_leaf] and [frame_words] claims.  This audit
    recomputes both from the instruction stream alone — leafness by
    scanning for frame-pushing or stack-switching instructions, locals
    from the highest touched slot, trap depth and operand depth by
    forward dataflow over {!Cfg.instr_successors} — and reports every
    function whose check would be elided on an under-reserving claim.
    Over-reservation (claimed frame larger than recomputed) is safe and
    not reported. *)

type computed = {
  c_leaf : bool;
  c_nlocals : int;
  c_max_traps : int;
  c_frame_words : int;
  c_max_ostack : int;
}

val compute :
  Retrofit_fiber.Compile.compiled -> Retrofit_fiber.Compile.cfn -> computed

val audit_fn :
  red_zone:int ->
  Retrofit_fiber.Compile.compiled ->
  Retrofit_fiber.Compile.cfn ->
  Diag.t option

val audit : red_zone:int -> Retrofit_fiber.Compile.compiled -> Diag.t list
