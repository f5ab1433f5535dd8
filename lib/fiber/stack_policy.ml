type kind = Copy_double | Segmented | Large_reserve

type t = {
  pk : kind;
  chunk_words : int;
  reserve_words : int;
  page_words : int;
  cow_clone : bool;
}

let copy_double =
  {
    pk = Copy_double;
    chunk_words = 0;
    reserve_words = 0;
    page_words = 0;
    cow_clone = false;
  }

let segmented =
  {
    pk = Segmented;
    chunk_words = 64;
    reserve_words = 1 lsl 20;
    page_words = 0;
    cow_clone = false;
  }

let segmented_cow = { segmented with cow_clone = true }

let large_reserve =
  {
    pk = Large_reserve;
    chunk_words = 0;
    reserve_words = 1 lsl 20;
    page_words = 256;
    cow_clone = false;
  }

let name t =
  match t.pk with
  | Copy_double -> "copy"
  | Segmented -> if t.cow_clone then "segmented-cow" else "segmented"
  | Large_reserve -> "reserve"

let all =
  [
    ("copy", copy_double);
    ("segmented", segmented);
    ("segmented-cow", segmented_cow);
    ("reserve", large_reserve);
  ]

let of_string s = List.assoc_opt s all

(* The extension granularity a policy commits stack memory in: linked
   chunks for Segmented, guard-page-sized commits for Large_reserve,
   none for Copy_double (whose segments are always fully committed). *)
let ext_words t =
  match t.pk with
  | Copy_double -> 0
  | Segmented -> t.chunk_words
  | Large_reserve -> t.page_words
