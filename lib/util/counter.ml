type name =
  | Addr_index_probe
  | Call
  | Callback
  | Check_elided
  | Chunk_commit
  | Chunk_cow
  | Chunk_pool_hit
  | Cont_copy
  | Cont_share
  | Cow_words
  | Eff_tbl_probe
  | Extcall
  | Fiber_alloc
  | Fiber_free
  | Fiber_return
  | Handle
  | Instructions
  | Malloc
  | Ops
  | Overflow_check
  | Page_commit
  | Page_fault
  | Perform
  | Poptrap
  | Pushtrap
  | Raise
  | Reperform
  | Resume
  | Ret
  | Segment_check
  | Stack_cache_hit
  | Stack_cache_lookup
  | Stack_cache_miss
  | Stack_grow
  | Switch
  | Words_copied

let all =
  [
    Addr_index_probe; Call; Callback; Check_elided; Chunk_commit; Chunk_cow;
    Chunk_pool_hit; Cont_copy; Cont_share; Cow_words; Eff_tbl_probe; Extcall;
    Fiber_alloc; Fiber_free; Fiber_return; Handle; Instructions; Malloc; Ops;
    Overflow_check; Page_commit; Page_fault; Perform; Poptrap; Pushtrap; Raise;
    Reperform; Resume; Ret; Segment_check; Stack_cache_hit; Stack_cache_lookup;
    Stack_cache_miss; Stack_grow; Switch; Words_copied;
  ]

let to_string = function
  | Addr_index_probe -> "addr_index_probe"
  | Call -> "call"
  | Callback -> "callback"
  | Check_elided -> "check_elided"
  | Chunk_commit -> "chunk_commit"
  | Chunk_cow -> "chunk_cow"
  | Chunk_pool_hit -> "chunk_pool_hit"
  | Cont_copy -> "cont_copy"
  | Cont_share -> "cont_share"
  | Cow_words -> "cow_words"
  | Eff_tbl_probe -> "eff_tbl_probe"
  | Extcall -> "extcall"
  | Fiber_alloc -> "fiber_alloc"
  | Fiber_free -> "fiber_free"
  | Fiber_return -> "fiber_return"
  | Handle -> "handle"
  | Instructions -> "instructions"
  | Malloc -> "malloc"
  | Ops -> "ops"
  | Overflow_check -> "overflow_check"
  | Page_commit -> "page_commit"
  | Page_fault -> "page_fault"
  | Perform -> "perform"
  | Poptrap -> "poptrap"
  | Pushtrap -> "pushtrap"
  | Raise -> "raise"
  | Reperform -> "reperform"
  | Resume -> "resume"
  | Ret -> "ret"
  | Segment_check -> "segment_check"
  | Stack_cache_hit -> "stack_cache_hit"
  | Stack_cache_lookup -> "stack_cache_lookup"
  | Stack_cache_miss -> "stack_cache_miss"
  | Stack_grow -> "stack_grow"
  | Switch -> "switch"
  | Words_copied -> "words_copied"

(* The slot of each name: its position in [all].  A match on constant
   constructors whose results are consecutive compiles to arithmetic,
   so a bump is one array read and one write. *)
let index = function
  | Addr_index_probe -> 0
  | Call -> 1
  | Callback -> 2
  | Check_elided -> 3
  | Chunk_commit -> 4
  | Chunk_cow -> 5
  | Chunk_pool_hit -> 6
  | Cont_copy -> 7
  | Cont_share -> 8
  | Cow_words -> 9
  | Eff_tbl_probe -> 10
  | Extcall -> 11
  | Fiber_alloc -> 12
  | Fiber_free -> 13
  | Fiber_return -> 14
  | Handle -> 15
  | Instructions -> 16
  | Malloc -> 17
  | Ops -> 18
  | Overflow_check -> 19
  | Page_commit -> 20
  | Page_fault -> 21
  | Perform -> 22
  | Poptrap -> 23
  | Pushtrap -> 24
  | Raise -> 25
  | Reperform -> 26
  | Resume -> 27
  | Ret -> 28
  | Segment_check -> 29
  | Stack_cache_hit -> 30
  | Stack_cache_lookup -> 31
  | Stack_cache_miss -> 32
  | Stack_grow -> 33
  | Switch -> 34
  | Words_copied -> 35

(* Reporting order: by name, whatever the declaration order. *)
let sorted = List.sort (fun a b -> String.compare (to_string a) (to_string b)) all

type t = int array

let create () : t = Array.make (List.length all) 0

let cells (t : t) : int array = t

let add t n v =
  let i = index n in
  Array.unsafe_set t i (Array.unsafe_get t i + v)

let incr t n = add t n 1

let value t n = Array.unsafe_get t (index n)

let get t s =
  match List.find_opt (fun n -> to_string n = s) all with
  | Some n -> value t n
  | None -> invalid_arg ("Counter.get: unknown counter " ^ s)

let to_list t =
  List.filter_map
    (fun n ->
      let v = value t n in
      if v = 0 then None else Some (to_string n, v))
    sorted

let diff a b =
  List.filter_map
    (fun n ->
      let d = value a n - value b n in
      if d = 0 then None else Some (to_string n, d))
    sorted
