(** A word-addressed stack segment.

    Segments live in a flat virtual address space: each owns the
    reservation [\[base, top)] assigned at allocation time, of which
    the {e committed} suffix [\[limit, top)] is readable and writable.
    Stack pointers and exception pointers are plain addresses in this
    space, so moving a fiber to a bigger segment changes the addresses
    of its contents — exactly the situation the runtime handles when
    growing a stack by copying (§5.2).

    Under the default copy-and-double policy a segment is {e flat}:
    fully committed, [limit = base], one backing array — byte-for-byte
    the original representation.  The stock main stack is flat as well,
    but it models the system stack, a reservation the OS backs page by
    page: {!create_on_demand} backs only the top of it, and a first
    write below the backed window doubles the window (or more, down to
    the written word), moving its words to the top of a fresh array.
    A word never written reads 0, so the window is invisible to
    everything but memory use: [limit], [size], [contains] and every
    address stay those of the whole reservation.  The segmented and
    large-reserve
    policies commit lazily: the head chunk covers the top of the
    reservation and growth {!extend}s the committed region downwards in
    uniform [ext_words]-sized chunks, in place, with no copying and no
    address changes.  Committed chunks are reference-counted so a
    multishot clone can {!share_clone} them and copy only on first
    write. *)

type t

val create : base:int -> size:int -> t
(** A flat, fully committed segment: [limit = base], not extensible. *)

val create_on_demand : base:int -> size:int -> t
(** A flat segment like {!create}, whose words are backed from the top
    down as they are first written, starting with the top 256.
    {!read} of a word below the backed window returns 0. *)

val create_reserved :
  base:int -> reserve:int -> committed:int -> ext_words:int -> t
(** A [reserve]-word reservation with the top [committed] words backed;
    growth commits further [ext_words]-sized chunks downwards via
    {!extend}.  @raise Invalid_argument if [committed] is non-positive
    or exceeds [reserve]. *)

val base : t -> int
(** The reservation floor — the segment's identity in the machine's
    base-address index; committed memory may not reach down to it. *)

val top : t -> int
(** One past the highest address, i.e. the initial stack pointer of an
    empty stack. *)

val limit : t -> int
(** Lowest committed (usable) address.  Equal to [base] for flat
    segments; moves down as chunks are committed. *)

val size : t -> int
(** Committed words, [top - limit].  This is the growth/copy cost unit
    and the stack-cache bucket key. *)

val reserve : t -> int
(** Total reservation, [top - base]. *)

val ext_words : t -> int

val ext_count : t -> int
(** Number of committed extension chunks (0 for flat segments). *)

val contains : t -> int -> bool
(** Whether the address is committed: in [\[limit, top)]. *)

val read : t -> int -> int
(** @raise Invalid_argument when the address is outside the committed
    region. *)

val write : t -> int -> int -> unit
(** @raise Invalid_argument when the address is outside the committed
    region.  Writing to a chunk shared with a clone first copies it
    (copy-on-write), reporting the copied word count through the
    {!set_notify_cow} hook. *)

val can_extend : t -> bool
(** Whether another [ext_words] chunk fits above the reservation
    floor. *)

val extend : t -> int array -> unit
(** Commit one more chunk (the array becomes its backing store; must
    have length [ext_words]).  @raise Invalid_argument if the segment
    is not extensible, the array has the wrong size, or the reservation
    is exhausted. *)

val strip : t -> int array list
(** Detach every extension chunk, restoring [limit] to the head chunk's
    floor.  Returns the backing arrays of the chunks this segment owned
    exclusively — the chunk free-list feedstock; chunks still shared
    with a clone are released (refcount decremented) but not
    returned. *)

val fully_private : t -> bool
(** No chunk is shared with a clone — the condition for recycling the
    segment through the stack cache. *)

val release : t -> unit
(** Drop this segment's ownership of every chunk without recycling
    anything; used when a shared segment dies. *)

val share_clone : t -> base:int -> t
(** A clone at a fresh base sharing every committed chunk with [t]
    (refcounts incremented).  Reads see the shared words; the first
    write to a chunk from either side copies it. *)

val set_notify_cow : t -> (int -> unit) -> unit
(** Install the copy-on-write observer: called with the chunk's word
    count each time a shared chunk is privatized by a write to this
    segment. *)

val shared_writes : unit -> int
(** Writes so far, process-wide, that landed in a chunk some other
    segment still maps.  {!write} never makes one, so only {!poke}
    moves this count.  An auditor that sees it move re-audits every
    live fiber. *)

val poke : t -> int -> int -> unit
(** Write a word in place, without copy-on-write: the write a broken
    copy-on-write would make, which every segment sharing the chunk
    sees.  For tests of the auditor; the machine never pokes.
    @raise Invalid_argument when the address is outside the committed
    region. *)

val set_rc : t -> int -> int -> unit
(** [set_rc t addr n] sets the reference count of the chunk holding
    [addr] to [n]: the count a refcounting bug would leave.  For tests
    of the auditor; the machine never sets one.
    @raise Invalid_argument when the address is outside the committed
    region. *)

val cached : t -> int
(** Stack-cache entries currently holding this segment; kept by
    {!Stack_cache}.  A live fiber's segment must have none. *)

val set_cached : t -> int -> unit
(** For {!Stack_cache} alone. *)

val drop_words : t -> unit
(** Release the words of a private segment with no extension chunks,
    keeping its addresses and size; other segments are left as they
    are.  Reading or writing the segment afterwards raises
    [Invalid_argument] until {!zero} gives it words again.  Growth
    drops the words of the segment a fiber has moved out of before
    offering it to the stack cache: the cache can still hand out its
    addresses, but holds no memory for it. *)

val zero : t -> unit
(** Clear every committed word to 0, allocating fresh words for a
    segment whose words were dropped.  Freed stacks are zeroed before
    reuse so a recycled segment cannot leak a previous fiber's frames
    or handler_info into its next occupant.  Only safe on fully
    private segments. *)

val blit_into : src:t -> dst:t -> unit
(** Copy the committed contents of [src] into the {e high} end of
    [dst], preserving distance-from-top; used when growing a stack by
    copying and when cloning eagerly.  Flat-to-flat copies take the
    [Array.blit] fast path.  @raise Invalid_argument if [dst]'s
    committed region is smaller than [src]'s. *)
