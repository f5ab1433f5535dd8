(** Stack-management policies for the fiber machine.

    The paper's runtime hard-codes one strategy: fibers start small and
    grow by copy-and-double with pointer rebasing, backed by a
    free-list stack cache (§5.1-5.2).  The libseff evaluation (Yu,
    2025) shows that segmented stacks and large-reserve/guard-page
    layouts make materially different trade-offs on deep recursion and
    perform/resume ping-pong; this descriptor makes the choice a
    config axis of the machine.

    - {b Copy_double}: the status quo.  A fiber's segment is always
      fully committed; outgrowing it copies the whole stack into a
      segment of (at least) double the size and rebases every stored
      address.  Prologue overflow checks are elided for leaf frames
      inside the red zone.  Must stay bit-identical on the frozen cost
      counters.
    - {b Segmented}: a large virtual reservation committed in linked
      [chunk_words]-sized chunks.  Growth commits another chunk in
      place — no copy, no rebasing — but {e every} call pays a
      segment-boundary check ([Costs.segment_check]); there is no
      red-zone elision.  Freed chunks go to a machine-wide free list.
    - {b Large_reserve}: one big reservation per fiber with a guard
      page.  Calls pay no check at all; running past the committed
      watermark is a modeled fault ([Costs.page_fault]) that commits
      [page_words]-sized pages in place.  Exhausting the reservation
      raises [Stack_overflow].

    [cow_clone] selects the multishot cloning strategy for Segmented:
    instead of eagerly copying a captured fiber's committed words at
    resume, the clone shares the chunks (reference-counted) and copies
    each chunk only when one side first writes to it. *)

type kind = Copy_double | Segmented | Large_reserve

type t = {
  pk : kind;
  chunk_words : int;  (** Segmented: words per linked chunk *)
  reserve_words : int;
      (** Segmented / Large_reserve: total reservation per fiber; the
          hard ceiling behind the guard page *)
  page_words : int;  (** Large_reserve: words committed per fault *)
  cow_clone : bool;
      (** Segmented: share chunks on multishot clone, copy on write *)
}

val copy_double : t

val segmented : t
(** 64-word chunks, 1M-word reservation. *)

val segmented_cow : t
(** [segmented] with copy-on-write multishot cloning. *)

val large_reserve : t
(** 1M-word reservation, 256-word pages. *)

val name : t -> string
(** ["copy"], ["segmented"], ["segmented-cow"] or ["reserve"]. *)

val all : (string * t) list
(** Every policy, keyed by {!name} — the conformance matrix. *)

val of_string : string -> t option

val ext_words : t -> int
(** The commit granularity: [chunk_words] for Segmented, [page_words]
    for Large_reserve, 0 for Copy_double (always fully committed). *)
