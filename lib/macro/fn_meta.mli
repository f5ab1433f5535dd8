(** Function inventories for the macro-suite OTSS model (Fig 5).

    Each workload declares its functions with their shape class and an
    approximate compiled body size; the OTSS model adds the size of an
    overflow-check sequence for each function the configuration checks
    — the same rule {!Retrofit_fiber.Otss} applies to compiled fiber
    programs. *)

type kind = Leaf_small | Leaf_mid | Leaf_big | Nonleaf

type t = { fn_name : string; kind : kind; body_bytes : int }

val make : string -> kind -> body_bytes:int -> t

val frame_words_of_kind : kind -> int
(** Modeled frame size per shape class; the static red-zone audit's
    macro-suite agreement test feeds these through
    {!Retrofit_fiber.Otss.needs_check} and pins the result to
    {!checked}. *)

val checked : red_zone:int option -> kind -> bool
(** [red_zone = None] is stock: nothing checked. *)

val otss : red_zone:int option -> t list -> int
