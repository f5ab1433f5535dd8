(* Log-linear bucketing, following HdrHistogram: values are grouped into
   exponentially growing "buckets", each containing [sub_bucket_count]
   linear sub-buckets, so the representation error of a value is at most
   one part in [sub_bucket_count / 2]. *)

type t = {
  sig_figs : int;
  max_value : int;
  sub_bucket_count : int;
  sub_bucket_half_count : int;
  sub_bucket_mask : int;
  sub_bucket_magnitude : int;  (* log2 sub_bucket_count *)
  unit_magnitude : int;  (* always 0 here: unit precision of 1 *)
  counts : int array;
  mutable total : int;
  mutable saturated : int;
  mutable min_seen : int;
  mutable max_seen : int;
}

(* The number of significant bits of [n >= 0]. *)
let rec bit_length n acc = if n = 0 then acc else bit_length (n lsr 1) (acc + 1)

(* Index of the exponential bucket holding [v]: the bit length of
   [v lor sub_bucket_mask] past the sub-bucket magnitude.  That length
   is at least the magnitude, so the bits below it are shifted off
   first. *)
let bucket_index t v =
  bit_length ((v lor t.sub_bucket_mask) lsr t.sub_bucket_magnitude) 0 - t.unit_magnitude

let sub_bucket_index t v bucket =
  v lsr (bucket + t.unit_magnitude)

let counts_index t v =
  let bucket = bucket_index t v in
  let sub = sub_bucket_index t v bucket in
  (* Buckets overlap in their lower half; the canonical flat index skips
     the redundant lower halves of buckets > 0. *)
  let base = (bucket + 1) * t.sub_bucket_half_count in
  base + (sub - t.sub_bucket_half_count)

let value_from_index t idx =
  let bucket = (idx / t.sub_bucket_half_count) - 1 in
  let sub = (idx mod t.sub_bucket_half_count) + t.sub_bucket_half_count in
  (* indices below one half-count decode bucket 0 exactly *)
  if bucket < 0 then (sub - t.sub_bucket_half_count) lsl t.unit_magnitude
  else sub lsl (bucket + t.unit_magnitude)

let create ?(significant_figures = 3) ~max_value () =
  if significant_figures < 1 || significant_figures > 5 then
    invalid_arg "Histogram.create: significant_figures must be in 1..5";
  if max_value < 2 then invalid_arg "Histogram.create: max_value must be >= 2";
  let largest_resolvable = 2 * int_of_float (10.0 ** float_of_int significant_figures) in
  let sub_bucket_count =
    let rec next_pow2 n p = if p >= n then p else next_pow2 n (p * 2) in
    next_pow2 largest_resolvable 2
  in
  let sub_bucket_half_count = sub_bucket_count / 2 in
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  let t =
    {
      sig_figs = significant_figures;
      max_value;
      sub_bucket_count;
      sub_bucket_half_count;
      sub_bucket_mask = sub_bucket_count - 1;
      sub_bucket_magnitude = log2 sub_bucket_count 0;
      unit_magnitude = 0;
      counts = [||];
      total = 0;
      saturated = 0;
      min_seen = Stdlib.max_int;
      max_seen = 0;
    }
  in
  let buckets_needed =
    let rec go smallest n =
      if smallest > max_value then n else go (smallest * 2) (n + 1)
    in
    go sub_bucket_count 1
  in
  let counts_len = (buckets_needed + 1) * sub_bucket_half_count in
  { t with counts = Array.make counts_len 0 }

let record_n t v n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    let v =
      if v > t.max_value then begin
        t.saturated <- t.saturated + n;
        t.max_value
      end
      else v
    in
    let idx = counts_index t v in
    t.counts.(idx) <- t.counts.(idx) + n;
    t.total <- t.total + n;
    if v < t.min_seen then t.min_seen <- v;
    if v > t.max_seen then t.max_seen <- v
  end

let record t v = record_n t v 1

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
         result := value_from_index t i;
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
        if c > 0 then sum := !sum +. (float_of_int (value_from_index t i) *. float_of_int c))
      t.counts;
    !sum /. float_of_int t.total
  end

let merge_into ~dst src =
  if
    dst.sig_figs <> src.sig_figs
    || dst.max_value <> src.max_value
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

(* Non-destructive merge: a fresh histogram holding the union of both
   recording sets.  Aggregating per-fiber (or per-run) latency
   histograms into a registry snapshot goes through here. *)
let merge a b =
  let dst = copy a in
  merge_into ~dst b;
  dst

let add_hist = merge_into

(* The raw bucket counts, for property tests: merge must preserve the
   per-bucket sums exactly, not just the total. *)
let bucket_counts t = Array.copy t.counts
