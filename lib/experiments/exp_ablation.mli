(** Ablations of the design choices DESIGN.md calls out.

    - {e stack cache} (§5.2): mallocs with and without the cache under
      fiber churn;
    - {e red zone size}: dynamic check counts and static checked-function
      counts at red zones 0/8/16/32/64;
    - {e initial fiber size}: growth copies versus initial size;
    - {e exceptions as linked frames vs as effects} (§5.1): the
      instruction cost of raising through a trap chain versus
      implementing the same control transfer with a handler fiber;
    - {e one-shot vs multi-shot resumption} (§5.2): the copying cost the
      one-shot design avoids;
    - {e interpreted vs precompiled unwind tables} (§5.5 / Bastian et
      al.): CFI operations executed versus table memory. *)

val report : ?quick:bool -> unit -> string
