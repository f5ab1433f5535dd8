(* Immutable sets of small non-negative ints — the analyzer's label and
   handle-spec ids — as words of [Sys.int_size] bits, lowest id first.
   The top word of a non-empty set is non-zero, so equal sets are
   structurally equal and the empty set is [[||]]. *)

type t = int array

let w = Sys.int_size

let empty : t = [||]

let is_empty (s : t) = Array.length s = 0

let word (s : t) k = if k < Array.length s then s.(k) else 0

let mem i s = word s (i / w) land (1 lsl (i mod w)) <> 0

let subset a b =
  Array.length a <= Array.length b
  &&
  let rec go k = k < 0 || (a.(k) land lnot b.(k) = 0 && go (k - 1)) in
  go (Array.length a - 1)

let union a b =
  if subset a b then b
  else if subset b a then a
  else
    Array.init (max (Array.length a) (Array.length b)) (fun k ->
        word a k lor word b k)

(* [a] cut back to its top non-zero word. *)
let norm (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let diff a b =
  if is_empty b then a
  else norm (Array.mapi (fun k x -> x land lnot (word b k)) a)

(* The ids [i < n] with [p i]. *)
let init n p : t =
  let a = Array.make ((n + w - 1) / w) 0 in
  for i = 0 to n - 1 do
    if p i then a.(i / w) <- a.(i / w) lor (1 lsl (i mod w))
  done;
  norm a

let singleton i = init (i + 1) (fun j -> j = i)

let add i s = if mem i s then s else union s (singleton i)

let of_list l = List.fold_left (fun s i -> add i s) empty l

let fold f (s : t) acc =
  let acc = ref acc in
  Array.iteri
    (fun k x ->
      let x = ref x and i = ref (k * w) in
      while !x <> 0 do
        if !x land 1 <> 0 then acc := f !i !acc;
        x := !x lsr 1;
        incr i
      done)
    s;
  !acc

let cardinal s = fold (fun _ n -> n + 1) s 0
