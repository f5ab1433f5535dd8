(** Stack-management strategy lab: the same workloads under every
    {!Retrofit_fiber.Stack_policy}, in the style of the libseff /
    wasmfx segmented-vs-contiguous comparisons.

    - {e growth}: deep recursion — relocation copies (copy-and-double)
      versus linked chunks (segmented) versus committed guard pages
      (large reserve);
    - {e per-call overhead}: the perform/resume ping-pong — red-zone
      elided prologue checks versus unelidable segment-boundary checks
      versus none;
    - {e cache}: stack-cache and chunk-free-list hit rates under fiber
      churn;
    - {e multishot cloning}: n-queens backtracking — eager fiber copies
      versus refcounted chunk sharing with copy-on-resume
      ([segmented-cow]). *)

val report : ?quick:bool -> unit -> string
