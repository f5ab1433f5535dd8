(* Log-linear bucketing, following HdrHistogram: values are grouped into
   exponentially growing "buckets", each containing [sub_bucket_count]
   linear sub-buckets, so the representation error of a value is at most
   one part in [sub_bucket_count / 2].  Three significant figures need
   2 * 10^3 sub-buckets, rounded up to a power of two. *)

let sub_bucket_magnitude = 11

let sub_bucket_count = 1 lsl sub_bucket_magnitude

let sub_bucket_half_count = sub_bucket_count / 2

let sub_bucket_mask = sub_bucket_count - 1

type t = {
  max_value : int;
  counts : int array;
  mutable total : int;
  mutable saturated : int;
  mutable min_seen : int;
  mutable max_seen : int;
}

(* The number of significant bits of [n >= 0]. *)
let rec bit_length n acc = if n = 0 then acc else bit_length (n lsr 1) (acc + 1)

let counts_index v =
  (* The exponential bucket holding [v]: the bit length of
     [v lor sub_bucket_mask] past the sub-bucket magnitude.  That length
     is at least the magnitude, so the bits below it are shifted off
     first. *)
  let bucket = bit_length ((v lor sub_bucket_mask) lsr sub_bucket_magnitude) 0 in
  let sub = v lsr bucket in
  (* Buckets overlap in their lower half; the canonical flat index skips
     the redundant lower halves of buckets > 0. *)
  let base = (bucket + 1) * sub_bucket_half_count in
  base + (sub - sub_bucket_half_count)

let value_from_index idx =
  let bucket = (idx / sub_bucket_half_count) - 1 in
  let sub = (idx mod sub_bucket_half_count) + sub_bucket_half_count in
  (* indices below one half-count decode bucket 0 exactly *)
  if bucket < 0 then sub - sub_bucket_half_count else sub lsl bucket

let create ~max_value () =
  if max_value < 2 then invalid_arg "Histogram.create: max_value must be >= 2";
  let buckets_needed =
    let rec go smallest n =
      if smallest > max_value then n else go (smallest * 2) (n + 1)
    in
    go sub_bucket_count 1
  in
  {
    max_value;
    counts = Array.make ((buckets_needed + 1) * sub_bucket_half_count) 0;
    total = 0;
    saturated = 0;
    min_seen = Stdlib.max_int;
    max_seen = 0;
  }

let record t v =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  let v =
    if v > t.max_value then begin
      t.saturated <- t.saturated + 1;
      t.max_value
    end
    else v
  in
  let idx = counts_index v in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1;
  if v < t.min_seen then t.min_seen <- v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.total

let saturated t = t.saturated

let min_value t = if t.total = 0 then 0 else t.min_seen

let max_recorded t = if t.total = 0 then 0 else t.max_seen

let value_at_percentile t p =
  if t.total = 0 then invalid_arg "Histogram.value_at_percentile: empty";
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Histogram.value_at_percentile: p out of range";
  let target =
    let x = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    Stdlib.max x 1
  in
  let acc = ref 0 in
  let result = ref t.max_seen in
  (try
     for i = 0 to Array.length t.counts - 1 do
       acc := !acc + t.counts.(i);
       if !acc >= target then begin
         result := value_from_index i;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let mean t =
  if t.total = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then sum := !sum +. (float_of_int (value_from_index i) *. float_of_int c))
      t.counts;
    !sum /. float_of_int t.total
  end

let merge_into ~dst src =
  if
    dst.max_value <> src.max_value
    || Array.length dst.counts <> Array.length src.counts
  then invalid_arg "Histogram.merge_into: parameter mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  dst.saturated <- dst.saturated + src.saturated;
  if src.total > 0 then begin
    if src.min_seen < dst.min_seen then dst.min_seen <- src.min_seen;
    if src.max_seen > dst.max_seen then dst.max_seen <- src.max_seen
  end

let copy t = { t with counts = Array.copy t.counts }

let merge a b =
  let dst = copy a in
  merge_into ~dst b;
  dst

(* The raw bucket counts, for property tests: merge must preserve the
   per-bucket sums exactly, not just the total. *)
let bucket_counts t = Array.copy t.counts
