(* Stats, Histogram, Pqueue, Rng, Counter, Table, Bench argument checks *)
open Retrofit_util

let test name f = Alcotest.test_case name `Quick f

let feq = Alcotest.(check (float 1e-9))

(* ---------------- Stats ---------------- *)

let stats_basics () =
  feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  feq "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  feq "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  feq "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  feq "min" 1.0 (Stats.min [| 3.0; 1.0; 2.0 |]);
  feq "max" 3.0 (Stats.max [| 3.0; 1.0; 2.0 |]);
  feq "stddev singleton" 0.0 (Stats.stddev [| 5.0 |]);
  feq "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |])

let stats_percentile () =
  let xs = Array.init 101 float_of_int in
  feq "p0" 0.0 (Stats.percentile xs 0.0);
  feq "p50" 50.0 (Stats.percentile xs 50.0);
  feq "p100" 100.0 (Stats.percentile xs 100.0);
  feq "p25 interp" 1.5 (Stats.percentile [| 1.0; 2.0; 3.0 |] 25.0)

let stats_normalize () =
  let n = Stats.normalize ~baseline:[| 2.0; 4.0 |] [| 4.0; 2.0 |] in
  feq "n0" 2.0 n.(0);
  feq "n1" 0.5 n.(1);
  feq "pct" 50.0 (Stats.percent_diff ~baseline:2.0 3.0);
  feq "slowdown" 1.5 (Stats.slowdown ~baseline:2.0 3.0)

let stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "geomean nonpos"
    (Invalid_argument "Stats.geomean: non-positive entry") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let stats_nan_rejected () =
  Alcotest.check_raises "percentile NaN"
    (Invalid_argument "Stats.percentile: NaN input") (fun () ->
      ignore (Stats.percentile [| 2.0; Float.nan; 1.0 |] 50.0));
  Alcotest.check_raises "min NaN" (Invalid_argument "Stats.min: NaN input")
    (fun () -> ignore (Stats.min [| Float.nan |]));
  Alcotest.check_raises "max NaN" (Invalid_argument "Stats.max: NaN input")
    (fun () -> ignore (Stats.max [| 1.0; Float.nan |]));
  (* total order from Float.compare: infinities still sort correctly *)
  Alcotest.(check bool) "p0 with -inf" true
    (Stats.percentile [| 0.0; Float.neg_infinity; 1.0 |] 0.0 = Float.neg_infinity)

let bench_rejects_bad_args () =
  Alcotest.check_raises "negative warmups"
    (Invalid_argument "Bench.measure: warmups must be non-negative") (fun () ->
      ignore (Retrofit_harness.Bench.measure ~warmups:(-1) (fun () -> 0)));
  Alcotest.check_raises "zero runs"
    (Invalid_argument "Bench.measure: runs must be positive") (fun () ->
      ignore (Retrofit_harness.Bench.measure ~runs:0 (fun () -> 0)));
  (* zero warmups is legal: measurement proceeds *)
  let m = Retrofit_harness.Bench.measure ~warmups:0 ~runs:1 (fun () -> 0) in
  Alcotest.(check int) "one run" 1 (Array.length m.Retrofit_harness.Bench.runs_ns)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.001 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.geomean a <= Stats.mean a +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range 0. 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

(* ---------------- Histogram ---------------- *)

let hist_basic () =
  let h = Histogram.create ~max_value:1_000_000 () in
  Histogram.record h 100;
  Histogram.record h 200;
  Histogram.record h 300;
  Alcotest.(check int) "count" 3 (Histogram.count h);
  Alcotest.(check int) "min" 100 (Histogram.min_value h);
  Alcotest.(check int) "p100 = max" (Histogram.max_recorded h)
    (Histogram.value_at_percentile h 100.0)

let hist_precision () =
  let h = Histogram.create ~max_value:10_000_000 () in
  List.iter (Histogram.record h) [ 123_456; 500; 9_999_999 ];
  let p100 = Histogram.value_at_percentile h 100.0 in
  let err = abs (p100 - 9_999_999) in
  Alcotest.(check bool) "within 0.1%" true (float_of_int err /. 9_999_999. < 0.001)

let hist_saturation () =
  let h = Histogram.create ~max_value:1000 () in
  Histogram.record h 5000;
  Alcotest.(check int) "saturated" 1 (Histogram.saturated h);
  Alcotest.(check int) "count" 1 (Histogram.count h)

let hist_merge () =
  let a = Histogram.create ~max_value:10_000 () in
  let b = Histogram.create ~max_value:10_000 () in
  Histogram.record a 10;
  Histogram.record b 1000;
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check int) "min" 10 (Histogram.min_value a);
  Alcotest.(check bool) "max ge" true (Histogram.max_recorded a >= 1000)

let hist_of_samples xs =
  let h = Histogram.create ~max_value:100_000 () in
  List.iter (Histogram.record h) xs;
  h

(* merge is a pure pairwise sum: total count and every bucket add up,
   and neither input is disturbed *)
let prop_hist_merge_sums =
  QCheck.Test.make ~name:"histogram merge preserves counts and buckets"
    ~count:200
    QCheck.(pair (list (int_range 1 200_000)) (list (int_range 1 200_000)))
    (fun (xs, ys) ->
      let a = hist_of_samples xs and b = hist_of_samples ys in
      let ca = Histogram.count a and cb = Histogram.count b in
      let sa = Histogram.saturated a and sb = Histogram.saturated b in
      let ba = Histogram.bucket_counts a and bb = Histogram.bucket_counts b in
      let m = Histogram.merge a b in
      Histogram.count m = ca + cb
      && Histogram.saturated m = sa + sb
      && Histogram.bucket_counts m
         = Array.init (Array.length ba) (fun i -> ba.(i) + bb.(i))
      (* inputs untouched *)
      && Histogram.count a = ca
      && Histogram.count b = cb
      && Histogram.bucket_counts a = ba
      && Histogram.bucket_counts b = bb)

let prop_hist_merge_into_matches_merge =
  QCheck.Test.make ~name:"merge_into mutates dst to the merge" ~count:200
    QCheck.(pair (list (int_range 1 200_000)) (list (int_range 1 200_000)))
    (fun (xs, ys) ->
      let a = hist_of_samples xs and b = hist_of_samples ys in
      let m = Histogram.merge a b in
      Histogram.merge_into ~dst:a b;
      Histogram.count a = Histogram.count m
      && Histogram.saturated a = Histogram.saturated m
      && Histogram.bucket_counts a = Histogram.bucket_counts m
      && Histogram.min_value a = Histogram.min_value m
      && Histogram.max_recorded a = Histogram.max_recorded m)

let prop_hist_percentile_bounds =
  QCheck.Test.make ~name:"histogram p50 within recorded range" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 100_000))
    (fun xs ->
      let h = Histogram.create ~max_value:200_000 () in
      List.iter (Histogram.record h) xs;
      let p50 = Histogram.value_at_percentile h 50.0 in
      let lo = List.fold_left min (List.hd xs) xs in
      let hi = List.fold_left max (List.hd xs) xs in
      (* representation error is at most 0.1% *)
      float_of_int p50 >= float_of_int lo *. 0.998
      && float_of_int p50 <= float_of_int hi *. 1.002)

let prop_hist_mean_close =
  QCheck.Test.make ~name:"histogram mean close to true mean" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 1_000_000))
    (fun xs ->
      let h = Histogram.create ~max_value:2_000_000 () in
      List.iter (Histogram.record h) xs;
      let true_mean =
        float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
      in
      Float.abs (Histogram.mean h -. true_mean) /. true_mean < 0.002)

(* ---------------- Pqueue ---------------- *)

let pq_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.add q ~priority:p v) [ (3, "c"); (1, "a"); (2, "b") ];
  let pop () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let pq_fifo_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i v -> Pqueue.add q ~priority:5 (i, v)) [ "x"; "y"; "z" ];
  let pop () = match Pqueue.pop q with Some (_, (_, v)) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order" [ "x"; "y"; "z" ]
    [ first; second; third ]

let pq_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "peek empty" true (Pqueue.peek q = None);
  Pqueue.add q ~priority:7 "v";
  Alcotest.(check bool) "peek" true (Pqueue.peek q = Some (7, "v"));
  Alcotest.(check int) "length unchanged" 1 (Pqueue.length q)

let prop_pq_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun ps ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~priority:p p) ps;
      let rec drain acc =
        match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare ps)

(* Evloop same-instant callback ordering depends on equal-priority
   entries draining in insertion order; check it under heavy ties by
   drawing priorities from a tiny range. *)
let prop_pq_fifo_within_priority =
  QCheck.Test.make ~name:"pqueue FIFO among equal priorities" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 4))
    (fun ps ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.add q ~priority:p (p, i)) ps;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (_, pv) -> drain (pv :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      (* popping must yield exactly the stable sort by priority: equal
         priorities in insertion-index order *)
      out
      = List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          (List.mapi (fun i p -> (p, i)) ps))

(* Random interleavings of every operation against a model: a list kept
   stable-sorted by priority, so equal priorities stay in insertion
   order.  Unlike a fill-then-drain run, this sifts after growth and
   reuses the queue after [clear]; adds outweigh pops and clears are
   rare, so runs grow the queue past several capacity doublings. *)
type pq_op = Add of int | Pop | Peek | Clear

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (40, map (fun p -> Add p) (int_range 0 20));
        (20, return Pop);
        (5, return Peek);
        (1, return Clear);
      ])

let pq_op_print = function
  | Add p -> Printf.sprintf "add %d" p
  | Pop -> "pop"
  | Peek -> "peek"
  | Clear -> "clear"

let prop_pq_model =
  QCheck.Test.make ~name:"pqueue agrees with a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_op_print ops))
       QCheck.Gen.(list_size (int_range 0 800) pq_op_gen))
    (fun ops ->
      let q = Pqueue.create () in
      let insert p v model =
        let before, after = List.partition (fun (p', _) -> p' <= p) model in
        before @ ((p, v) :: after)
      in
      let step model i op =
        let model, got, want =
          match op with
          | Add p ->
              Pqueue.add q ~priority:p i;
              (insert p i model, None, None)
          | Pop -> (
              let got = Pqueue.pop q in
              match model with [] -> ([], got, None) | x :: rest -> (rest, got, Some x))
          | Peek -> (model, Pqueue.peek q, List.nth_opt model 0)
          | Clear ->
              Pqueue.clear q;
              ([], None, None)
        in
        if got <> want then
          QCheck.Test.fail_reportf "op %d (%s): queue and model differ" i (pq_op_print op);
        if Pqueue.length q <> List.length model || Pqueue.is_empty q <> (model = []) then
          QCheck.Test.fail_reportf "op %d (%s): length %d, model %d" i (pq_op_print op)
            (Pqueue.length q) (List.length model);
        model
      in
      ignore (List.fold_left (fun (i, model) op -> (i + 1, step model i op)) (0, []) ops);
      true)

(* ---------------- Rng ---------------- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let rng_exponential_positive () =
  let r = Rng.create 11 in
  let sum = ref 0.0 in
  for _ = 1 to 10_000 do
    let x = Rng.exponential r ~mean:5.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. 10_000.0 in
  Alcotest.(check bool) "mean approx 5" true (mean > 4.5 && mean < 5.5)

let rng_shuffle_permutes () =
  let r = Rng.create 13 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  Alcotest.(check (list int)) "same elements" (List.init 20 Fun.id)
    (List.sort compare (Array.to_list arr))

(* Known answers: values drawn from the boxed-record generator that
   preceded the unboxed state, for seeds 0, 1, -1 and 1 lsl 40 and for
   every kind of draw.  The goldens and the chaos MD5s pin the stream
   only through what they print; these pin it directly. *)
let rng_known_answers () =
  let bits seed n =
    let r = Rng.create seed in
    List.init n (fun _ -> Rng.bits64 r)
  and draws seed n f =
    let r = Rng.create seed in
    List.init n (fun _ -> f r)
  in
  let i64s = Alcotest.(check (list int64))
  and ints = Alcotest.(check (list int))
  and floats = Alcotest.(check (list (float 0.0))) in
  i64s "bits64 seed 0"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
      7684712102626143532L; -4925340083591827879L; -4640532413560118L;
      7788427924976520344L; -8565655843838424513L ]
    (bits 0 8);
  i64s "bits64 seed 1"
    [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
      7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
      1310552918490157286L; 7031611932980406429L ]
    (bits 1 8);
  i64s "bits64 seed -1"
    [ -8118546653352383224L; -4290065566684577747L; -9088772293754075490L;
      -4655159067405239249L; -7983312046894832854L; -4948507577611999963L;
      6831296623176769502L; -4285393230689821982L ]
    (bits (-1) 8);
  i64s "bits64 seed 1 lsl 40"
    [ -7794965304565281922L; -44287127274702489L; 7040339152346828948L;
      -3994291882321842148L; 6688168523897792436L; 6955219940481456461L;
      -6774257906910435609L; 7690467217124919586L ]
    (bits (1 lsl 40) 8);
  ints "int 1" [ 0; 0; 0; 0; 0; 0; 0; 0 ] (draws 42 8 (fun r -> Rng.int r 1));
  ints "int 10" [ 2; 8; 1; 1; 4; 2; 6; 5 ] (draws 42 8 (fun r -> Rng.int r 10));
  ints "int max_int"
    [ 1546998764402558742; 2379265674537155198; 3321214725393783201;
      3222516053899960481; 4460494922783153764; 364128774783586872;
      4044606872079424946; 1844830170035650695 ]
    (draws 42 8 (fun r -> Rng.int r max_int));
  floats "float 1.0"
    [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
      0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1 ]
    (draws 42 6 (fun r -> Rng.float r 1.0));
  floats "float 1000.0"
    [ 0x1.4f73aeaf7e5a8p+6; 0x1.7afaf1b51a0b4p+8; 0x1.54058e7e19128p+9;
      0x1.ce58b26eb33a5p+9; 0x1.efe6e6a9c735ap+9; 0x1.80dea6a3b6e0fp+9 ]
    (draws 42 6 (fun r -> Rng.float r 1000.0));
  Alcotest.(check (list bool)) "bool"
    [ false; false; true; true; false; false; false; true; false; true; true;
      true; false; false; true; false ]
    (draws 42 16 Rng.bool);
  floats "exponential ~mean:50"
    [ 0x1.18492dfb2dcbap+2; 0x1.7d1d299a6526bp+4; 0x1.c7d3f68bbeadfp+5;
      0x1.029e3ed29dffbp+7; 0x1.e068ec853c215p+7; 0x1.25b571b1c9417p+6 ]
    (draws 42 6 (fun r -> Rng.exponential r ~mean:50.0));
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  i64s "split child"
    [ -5274542019872928699L; 3333208791178059692L; 4436588858355913672L;
      5438316142355315829L ]
    (List.init 4 (fun _ -> Rng.bits64 child));
  i64s "split parent after"
    [ 6990951692964543102L; -5902157311460992607L ]
    (List.init 2 (fun _ -> Rng.bits64 parent));
  let arr = Array.init 10 Fun.id in
  Rng.shuffle (Rng.create 42) arr;
  Alcotest.(check (array int)) "shuffle" [| 7; 3; 0; 8; 9; 4; 6; 1; 5; 2 |] arr

(* Minor-heap words per draw of [draw], net of the measurement itself. *)
let words_per_draw draw =
  let r = Rng.create 5 in
  let n = 10_000 in
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  for _ = 1 to n do
    draw r
  done;
  let c = Gc.minor_words () in
  (c -. b -. (b -. a)) /. float_of_int n

(* The state is unboxed, so an [int] or [bool] draw allocates nothing,
   a [float] draw at most the float it returns (two words; none where
   the caller unboxes it) and [bits64] at most its [int64] box. *)
let rng_draws_allocate_nothing () =
  let ceiling what draw words =
    let w = words_per_draw draw in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words a draw <= %d" what w words)
      true
      (w <= float_of_int words)
  in
  ceiling "int 10" (fun r -> ignore (Sys.opaque_identity (Rng.int r 10))) 0;
  ceiling "int max_int" (fun r -> ignore (Sys.opaque_identity (Rng.int r max_int))) 0;
  ceiling "bool" (fun r -> ignore (Sys.opaque_identity (Rng.bool r))) 0;
  ceiling "float" (fun r -> ignore (Sys.opaque_identity (Rng.float r 1.0))) 2;
  ceiling "exponential"
    (fun r -> ignore (Sys.opaque_identity (Rng.exponential r ~mean:5.0)))
    2;
  ceiling "bits64" (fun r -> ignore (Sys.opaque_identity (Rng.bits64 r))) 3

(* ---------------- Counter ---------------- *)

let counter_basics () =
  let c = Counter.create () in
  Counter.incr c Counter.Ops;
  Counter.add c Counter.Ops 4;
  Alcotest.(check int) "ops" 5 (Counter.(value c Ops));
  Alcotest.(check int) "untouched" 0 (Counter.(value c Call));
  Alcotest.(check (list (pair string int))) "to_list" [ ("ops", 5) ] (Counter.to_list c);
  let d = Counter.create () in
  Counter.add d Counter.Ops 2;
  Counter.add d Counter.Call 1;
  Alcotest.(check (list (pair string int))) "diff" [ ("call", -1); ("ops", 3) ]
    (Counter.diff c d)

let counter_names () =
  let c = Counter.create () in
  List.iteri (fun i n -> Counter.add c n (i + 1)) Counter.all;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Counter.to_string n ^ " round-trips")
        (Counter.value c n)
        (Counter.get c (Counter.to_string n)))
    Counter.all;
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Counter.get: unknown counter grow") (fun () ->
      ignore (Counter.get (Counter.create ()) "grow"))

(* Random positive bumps, as the machine makes them. *)
let counter_bumps =
  QCheck.(list (pair (int_range 0 (List.length Counter.all - 1)) (int_range 1 1000)))

let counter_of bumps =
  let c = Counter.create () in
  List.iter (fun (i, v) -> Counter.add c (List.nth Counter.all i) v) bumps;
  c

let prop_counter_to_list =
  QCheck.Test.make ~name:"counter to_list: exactly the nonzero counters, sorted"
    ~count:200 counter_bumps (fun bumps ->
      let c = counter_of bumps in
      let l = Counter.to_list c in
      List.map fst l = List.sort_uniq String.compare (List.map fst l)
      && List.for_all
           (fun n ->
             match List.assoc_opt (Counter.to_string n) l with
             | Some v -> v <> 0 && v = Counter.value c n
             | None -> Counter.value c n = 0)
           Counter.all)

let prop_counter_diff =
  QCheck.Test.make ~name:"counter diff is the pointwise difference" ~count:200
    (QCheck.pair counter_bumps counter_bumps) (fun (xs, ys) ->
      let a = counter_of xs and b = counter_of ys in
      let d = Counter.diff a b in
      List.map fst d = List.sort_uniq String.compare (List.map fst d)
      && List.for_all
           (fun n ->
             let want = Counter.value a n - Counter.value b n in
             match List.assoc_opt (Counter.to_string n) d with
             | Some v -> v = want && v <> 0
             | None -> want = 0)
           Counter.all)

(* ---------------- Table ---------------- *)

let table_render () =
  let s = Table.render ~header:[ "x"; "long" ] [ [ "aa"; "b" ]; [ "c" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "x");
  Alcotest.(check bool) "pads short rows" true
    (List.length (String.split_on_char '\n' s) >= 4)

(* ---------------- Rng properties (conformance satellite) ---------------- *)

let prop_rng_int_in_bound =
  QCheck.Test.make ~name:"rng int respects arbitrary bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let rng_int_one_is_zero () =
  (* bound = 1 must return 0 immediately; a rejection-sampling loop that
     draws until [v < bound] would spin forever on a mask of 0 bits
     handled wrongly. *)
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "int 1" 0 (Rng.int r 1)
  done

let rng_uniformity_smoke () =
  (* Not a statistical test, a sanity smoke: 10k draws over 10 buckets
     should put every bucket within 30% of the expected 1000. *)
  let r = Rng.create 17 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d" i n)
        true
        (n > 700 && n < 1300))
    buckets

let prop_rng_float_in_bound =
  QCheck.Test.make ~name:"rng float in [0, bound)" ~count:300
    QCheck.(pair small_int (float_range 0.001 1e9))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let f = Rng.float r bound in
        if not (f >= 0.0 && f < bound) then ok := false
      done;
      !ok)

let rng_split_independent () =
  (* Children of equal-seeded parents agree with each other; a child's
     stream differs from its parent's continuation (otherwise split
     would just alias the parent). *)
  let p1 = Rng.create 23 and p2 = Rng.create 23 in
  let c1 = Rng.split p1 and c2 = Rng.split p2 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "children deterministic" (Rng.bits64 c1) (Rng.bits64 c2)
  done;
  let p = Rng.create 29 in
  let c = Rng.split p in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 p = Rng.bits64 c then incr same
  done;
  Alcotest.(check bool) "child stream differs from parent" true (!same < 4)

(* ------------- Histogram properties (conformance satellite) ------------- *)

let prop_hist_index_roundtrip =
  QCheck.Test.make ~name:"histogram counts_index/value_from_index round-trip"
    ~count:1000
    QCheck.(int_range 0 100_000_000)
    (fun v ->
      let i = Histogram.counts_index v in
      let d = Histogram.value_from_index i in
      (* decoded value is the bucket lower bound: at most v, within the
         advertised relative error (three significant figures), and
         decoding is a fixed point *)
      d <= v
      && float_of_int (v - d) <= 1e-3 *. float_of_int (max v 1)
      && Histogram.counts_index d = i)

let prop_hist_index_monotone =
  QCheck.Test.make ~name:"histogram counts_index monotone" ~count:500
    QCheck.(pair (int_range 0 10_000_000) (int_range 0 10_000_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Histogram.counts_index lo <= Histogram.counts_index hi)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentile monotone in p" ~count:200
    QCheck.(pair
              (list_of_size (Gen.int_range 1 40) (int_range 0 1_000_000))
              (pair (float_range 0.01 100.0) (float_range 0.01 100.0)))
    (fun (xs, (p1, p2)) ->
      let h = Histogram.create ~max_value:1_000_000 () in
      List.iter (Histogram.record h) xs;
      let lo = min p1 p2 and hi = max p1 p2 in
      Histogram.value_at_percentile h lo <= Histogram.value_at_percentile h hi)

let hist_saturation_boundary () =
  let h = Histogram.create ~max_value:1000 () in
  Histogram.record h 1000;
  Alcotest.(check int) "max_value itself not saturated" 0 (Histogram.saturated h);
  Histogram.record h 1001;
  Alcotest.(check int) "max_value+1 saturated" 1 (Histogram.saturated h);
  Alcotest.(check int) "both counted" 2 (Histogram.count h);
  Alcotest.(check bool) "clamped to max_value" true (Histogram.max_recorded h <= 1000)

let table_kv_and_chart () =
  let kv = Table.render_kv [ ("key", "value"); ("k2", "v2") ] in
  Alcotest.(check bool) "kv" true (String.length kv > 0);
  let chart = Table.bar_chart [ ("a", 0.5); ("b", 1.5) ] in
  Alcotest.(check bool) "chart has bars" true (String.contains chart '#');
  Alcotest.(check bool) "chart has baseline" true (String.contains chart '|')

let suite =
  [
    test "stats basics" stats_basics;
    test "stats percentile" stats_percentile;
    test "stats normalize" stats_normalize;
    test "stats errors" stats_errors;
    test "stats reject NaN" stats_nan_rejected;
    test "bench rejects bad warmups/runs" bench_rejects_bad_args;
    QCheck_alcotest.to_alcotest prop_geomean_le_mean;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    test "histogram basics" hist_basic;
    test "histogram precision" hist_precision;
    test "histogram saturation" hist_saturation;
    test "histogram merge" hist_merge;
    QCheck_alcotest.to_alcotest prop_hist_merge_sums;
    QCheck_alcotest.to_alcotest prop_hist_merge_into_matches_merge;
    QCheck_alcotest.to_alcotest prop_hist_percentile_bounds;
    QCheck_alcotest.to_alcotest prop_hist_mean_close;
    test "pqueue order" pq_order;
    test "pqueue fifo ties" pq_fifo_ties;
    test "pqueue peek" pq_peek;
    QCheck_alcotest.to_alcotest prop_pq_sorted;
    QCheck_alcotest.to_alcotest prop_pq_fifo_within_priority;
    test "rng deterministic" rng_deterministic;
    test "rng bounds" rng_bounds;
    test "rng exponential" rng_exponential_positive;
    test "rng shuffle" rng_shuffle_permutes;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bound;
    test "rng int 1 is 0" rng_int_one_is_zero;
    test "rng uniformity smoke" rng_uniformity_smoke;
    QCheck_alcotest.to_alcotest prop_rng_float_in_bound;
    test "rng split independence" rng_split_independent;
    test "rng known answers" rng_known_answers;
    QCheck_alcotest.to_alcotest prop_hist_index_roundtrip;
    QCheck_alcotest.to_alcotest prop_hist_index_monotone;
    QCheck_alcotest.to_alcotest prop_hist_percentile_monotone;
    test "histogram saturation boundary" hist_saturation_boundary;
    test "counter basics" counter_basics;
    test "counter names round-trip, unknown raises" counter_names;
    QCheck_alcotest.to_alcotest prop_counter_to_list;
    QCheck_alcotest.to_alcotest prop_counter_diff;
    test "table render" table_render;
    test "table kv and chart" table_kv_and_chart;
    QCheck_alcotest.to_alcotest prop_pq_model;
  ]

let alloc_suite = [ test "rng draws allocate nothing" rng_draws_allocate_nothing ]
