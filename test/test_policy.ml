(* The stack-policy lab: chunked-segment arithmetic, clone
   independence under copy-on-write sharing, stack-cache accounting
   invariants, cross-policy machine equivalence (one-shot and
   multishot), DWARF unwinding across chunk boundaries, and the
   conformance campaign's policy-differential and multishot modes. *)

module F = Retrofit_fiber
module D = Retrofit_dwarf
module C = Retrofit_conformance
module Counter = Retrofit_util.Counter

let test name f = Alcotest.test_case name `Quick f

let policies =
  F.Stack_policy.[ copy_double; segmented; segmented_cow; large_reserve ]

(* ------------------------------------------------------------------ *)
(* Segment/chunk arithmetic. *)

(* reserve/committed/ext shapes that stay small enough to fill word by
   word *)
let seg_shape =
  QCheck.make
    ~print:(fun (r, c, e, base) ->
      Printf.sprintf "reserve=%d committed=%d ext=%d base=%d" r c e base)
    QCheck.Gen.(
      let* ext = int_range 1 17 in
      let* committed = int_range 1 40 in
      let* extra = int_range 0 12 in
      let* base = int_range 0 1000 in
      return (committed + (extra * ext), committed, ext, base))

let build_extended (reserve, committed, ext, base) =
  let seg = F.Segment.create_reserved ~base ~reserve ~committed ~ext_words:ext in
  while F.Segment.can_extend seg do
    F.Segment.extend seg (Array.make ext 0)
  done;
  seg

let prop_word_accounting =
  QCheck.Test.make ~name:"chunk-list word accounting" ~count:300 seg_shape
    (fun shape ->
      let seg = build_extended shape in
      let reserve, committed, ext, base = shape in
      F.Segment.size seg = F.Segment.top seg - F.Segment.limit seg
      && F.Segment.size seg = committed + (F.Segment.ext_count seg * ext)
      && F.Segment.reserve seg = reserve
      && F.Segment.limit seg >= base
      (* no further chunk fits: the committed region is maximal *)
      && not (F.Segment.can_extend seg))

let prop_no_overlap =
  QCheck.Test.make ~name:"chunks do not overlap (address bijection)" ~count:300
    seg_shape (fun shape ->
      let seg = build_extended shape in
      let lo = F.Segment.limit seg and hi = F.Segment.top seg in
      (* write each address's own value everywhere, then read it all
         back: any aliasing between chunks would clobber some cell *)
      for a = lo to hi - 1 do
        F.Segment.write seg a (a * 3)
      done;
      let ok = ref true in
      for a = lo to hi - 1 do
        if F.Segment.read seg a <> a * 3 then ok := false
      done;
      !ok)

let prop_boundary_roundtrip =
  QCheck.Test.make ~name:"boundary addresses round-trip; outside raises"
    ~count:300 seg_shape (fun shape ->
      let seg = build_extended shape in
      let lo = F.Segment.limit seg and hi = F.Segment.top seg in
      let raises a =
        match F.Segment.read seg a with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      F.Segment.write seg lo 41;
      let lo_ok = F.Segment.read seg lo = 41 in
      F.Segment.write seg (hi - 1) 43;
      lo_ok
      && F.Segment.read seg (hi - 1) = 43
      && F.Segment.contains seg lo
      && F.Segment.contains seg (hi - 1)
      && (not (F.Segment.contains seg (lo - 1)))
      && (not (F.Segment.contains seg hi))
      && raises (lo - 1) && raises hi)

(* ------------------------------------------------------------------ *)
(* Clone independence. *)

let prop_clone_independence =
  QCheck.Test.make ~name:"mutating a clone never perturbs its sibling"
    ~count:300
    QCheck.(pair seg_shape (list_of_size Gen.(int_range 1 30) (int_bound 1000)))
    (fun (shape, writes) ->
      let seg = build_extended shape in
      let lo = F.Segment.limit seg and hi = F.Segment.top seg in
      for a = lo to hi - 1 do
        F.Segment.write seg a (a * 7)
      done;
      let _, _, _, base = shape in
      let clone_base = base + 100_000 in
      let clone = F.Segment.share_clone seg ~base:clone_base in
      let delta = F.Segment.top clone - F.Segment.top seg in
      (* interleave writes to both sides at derived addresses *)
      List.iteri
        (fun i w ->
          let a = lo + (w mod (hi - lo)) in
          if i mod 2 = 0 then F.Segment.write clone (a + delta) (-w - 1)
          else F.Segment.write seg a (w * 11))
        writes;
      (* sibling words not written through [seg] still read the
         original pattern *)
      let written_orig =
        List.filteri (fun i _ -> i mod 2 = 1) writes
        |> List.map (fun w -> lo + (w mod (hi - lo)))
      in
      let ok = ref true in
      for a = lo to hi - 1 do
        if not (List.mem a written_orig) && F.Segment.read seg a <> a * 7 then
          ok := false
      done;
      (* and clone words not written through [clone] read it too *)
      let written_clone =
        List.filteri (fun i _ -> i mod 2 = 0) writes
        |> List.map (fun w -> lo + (w mod (hi - lo)) + delta)
      in
      for a = lo + delta to hi + delta - 1 do
        if
          (not (List.mem a written_clone))
          && F.Segment.read clone a <> (a - delta) * 7
        then ok := false
      done;
      !ok)

let clone_cow_notify () =
  let seg = F.Segment.create_reserved ~base:0 ~reserve:64 ~committed:16 ~ext_words:16 in
  F.Segment.extend seg (Array.make 16 0);
  let clone = F.Segment.share_clone seg ~base:1000 in
  let copied = ref 0 in
  F.Segment.set_notify_cow clone (fun words -> copied := !copied + words);
  Alcotest.(check bool) "not private while shared" false (F.Segment.fully_private seg);
  (* first write to each shared chunk privatizes it exactly once *)
  let top = F.Segment.top clone in
  F.Segment.write clone (top - 1) 1;
  F.Segment.write clone (top - 2) 2;
  Alcotest.(check int) "head privatized once" 16 !copied;
  F.Segment.write clone (F.Segment.limit clone) 3;
  Alcotest.(check int) "chunk privatized once" 32 !copied;
  F.Segment.write clone (F.Segment.limit clone) 4;
  Alcotest.(check int) "no recopy on second write" 32 !copied;
  Alcotest.(check bool) "clone private after privatizing" true
    (F.Segment.fully_private clone);
  Alcotest.(check bool) "original private again" true (F.Segment.fully_private seg)

(* ------------------------------------------------------------------ *)
(* Stack-cache accounting. *)

type cache_op = Put of int | Take of int

let cache_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function Put n -> Printf.sprintf "put %d" n | Take n -> Printf.sprintf "take %d" n)
           ops))
    QCheck.Gen.(
      list_size (int_range 1 60)
        (let* size = int_range 1 5 in
         let* put = bool in
         return (if put then Put (size * 16) else Take (size * 16))))

let prop_cache_invariants =
  QCheck.Test.make ~name:"stack-cache accounting invariants" ~count:300
    QCheck.(pair cache_ops (int_bound 4))
    (fun (ops, cap_bucket) ->
      let max_total_words = 128 in
      let cache =
        F.Stack_cache.create ~max_per_bucket:(cap_bucket + 1) ~max_total_words ()
      in
      let next_base = ref 0 in
      List.iter
        (function
          | Put size ->
              let seg = F.Segment.create ~base:!next_base ~size in
              next_base := !next_base + size + 8;
              F.Stack_cache.put cache ~size seg
          | Take size -> ignore (F.Stack_cache.take cache ~size))
        ops;
      let s = F.Stack_cache.stats cache in
      s.F.Stack_cache.hits + s.F.Stack_cache.misses = s.F.Stack_cache.lookups
      && F.Stack_cache.total_words cache <= max_total_words
      && s.F.Stack_cache.puts - s.F.Stack_cache.hits
         = F.Stack_cache.population cache
      && (let words = ref 0 in
          F.Stack_cache.iter cache (fun seg -> words := !words + F.Segment.size seg);
          !words = F.Stack_cache.total_words cache))

(* Taking from the cache must never return a segment still shared with
   a live clone, under any policy: the machine only recycles fully
   private segments. *)
let cache_only_private () =
  List.iter
    (fun pol ->
      let cfg =
        F.Config.with_multishot true (F.Config.with_policy pol F.Config.mc)
      in
      match
        F.Machine.run ~cfuns:[] cfg (F.Compile.compile (F.Programs.nqueens ~n:4))
      with
      | F.Machine.Done v, _ -> Alcotest.(check int) "nqueens 4" 2 v
      | o, _ ->
          Alcotest.failf "nqueens under %s: unexpected %s" (F.Stack_policy.name pol)
            (match o with
            | F.Machine.Uncaught (l, _) -> "uncaught " ^ l
            | F.Machine.Fatal m -> "fatal " ^ m
            | _ -> "?"))
    policies

(* ------------------------------------------------------------------ *)
(* Cross-policy machine equivalence. *)

let run cfg ?(cfuns = F.Programs.standard_cfuns) p =
  match F.Machine.run ~cfuns cfg (F.Compile.compile p) with
  | F.Machine.Done v, c -> (Printf.sprintf "Done %d" v, c)
  | F.Machine.Uncaught (l, v), c -> (Printf.sprintf "Uncaught %s %d" l v, c)
  | F.Machine.Fatal m, _ -> Alcotest.failf "fatal: %s" m

let oneshot_programs =
  [
    ("fib", F.Programs.fib ~n:12);
    ("deep_recursion", F.Programs.deep_recursion ~depth:3000);
    ("effect_roundtrip", F.Programs.effect_roundtrip ~iters:50);
    ("effect_depth", F.Programs.effect_depth ~depth:5 ~iters:5);
    ("counter_effect", F.Programs.counter_effect ~upto:10);
    ("exnraise", F.Programs.exnraise ~iters:50);
    ("callback", F.Programs.callback ~iters:50);
    ("discontinue", F.Programs.discontinue_cleanup);
    ("cross_resume", F.Programs.cross_resume);
    ("one_shot_violation", F.Programs.one_shot_violation);
    ("unhandled_effect", F.Programs.unhandled_effect);
  ]

let policy_outcomes_agree () =
  List.iter
    (fun (name, p) ->
      let base, _ = run F.Config.mc p in
      List.iter
        (fun pol ->
          let got, _ = run (F.Config.with_policy pol F.Config.mc) p in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" name (F.Stack_policy.name pol))
            base got)
        policies)
    oneshot_programs

let multishot_outcomes_agree () =
  let ms pol = F.Config.with_multishot true (F.Config.with_policy pol F.Config.mc) in
  List.iter
    (fun pol ->
      let got, _ = run (ms pol) F.Programs.multishot_choice ~cfuns:[] in
      Alcotest.(check string)
        (Printf.sprintf "multishot_choice under %s" (F.Stack_policy.name pol))
        "Done 30" got)
    policies;
  List.iter
    (fun (n, want) ->
      List.iter
        (fun pol ->
          let got, _ = run (ms pol) (F.Programs.nqueens ~n) ~cfuns:[] in
          Alcotest.(check string)
            (Printf.sprintf "nqueens %d under %s" n (F.Stack_policy.name pol))
            (Printf.sprintf "Done %d" want) got)
        policies)
    [ (4, 2); (5, 10); (6, 4) ]

(* The chunk pool and COW sharing must not leak accounting: under
   segmented-cow, deferred copies replace the eager words_copied. *)
let cow_defers_copies () =
  let ms pol = F.Config.with_multishot true (F.Config.with_policy pol F.Config.mc) in
  let _, eager = run (ms F.Stack_policy.segmented) (F.Programs.nqueens ~n:5) ~cfuns:[] in
  let _, cow = run (ms F.Stack_policy.segmented_cow) (F.Programs.nqueens ~n:5) ~cfuns:[] in
  Alcotest.(check bool) "eager clone copies words" true
    (Counter.(value eager Words_copied) > 0);
  Alcotest.(check int) "cow clone copies nothing eagerly" 0
    (Counter.(value cow Words_copied));
  Alcotest.(check bool) "cow pays per privatized chunk" true
    (Counter.(value cow Cow_words) > 0);
  Alcotest.(check bool) "sharing beats eager copying" true
    (Counter.(value cow Cow_words) < Counter.(value eager Words_copied));
  Alcotest.(check int) "every clone is shared" (Counter.(value eager Cont_copy))
    (Counter.(value cow Cont_share))

(* ------------------------------------------------------------------ *)
(* DWARF unwinding across segment boundaries. *)

let dwarf_unwinds_chunked_stacks () =
  List.iter
    (fun pol ->
      List.iter
        (fun (name, p) ->
          let cfg = F.Config.with_policy pol F.Config.mc in
          let compiled = F.Compile.compile p in
          let _, report =
            D.Validate.run_validated ~cfuns:F.Programs.standard_cfuns cfg compiled
          in
          (match report.D.Validate.mismatches with
          | [] -> ()
          | (ctx, unwound, shadow) :: _ ->
              Alcotest.failf "%s under %s: %s\n  unwound: %s\n  shadow: %s" name
                (F.Stack_policy.name pol) ctx (String.concat ";" unwound)
                (String.concat ";" shadow));
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s probed" name (F.Stack_policy.name pol))
            true
            (report.D.Validate.probes > 0))
        [
          (* deep recursion guarantees extension chunks, so unwinding
             crosses chunk boundaries *)
          ("deep_recursion", F.Programs.deep_recursion ~depth:2000);
          ("effect_depth", F.Programs.effect_depth ~depth:4 ~iters:3);
        ])
    policies

(* ------------------------------------------------------------------ *)
(* Conformance: policy differential and multishot campaigns. *)

let policy_differential_campaign () =
  let stats =
    C.Fuzz.campaign ~policies:C.Fuzz.default_policies ~seed:11 ~count:60
      ~dwarf:false ()
  in
  (match stats.C.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "policy diff:\n%s" (C.Fuzz.failure_to_string f));
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool)
        (name ^ " policy ran")
        true
        (n + List.assoc name stats.C.Fuzz.policy_skips = 60))
    stats.C.Fuzz.policy_agreements

let multishot_campaign_agrees () =
  let fiber_config = F.Config.with_multishot true F.Config.mc in
  let stats =
    C.Fuzz.campaign ~fiber_config ~multishot:true
      ~policies:C.Fuzz.default_policies ~seed:42 ~count:120 ~dwarf:false ()
  in
  (match stats.C.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "multishot diff:\n%s" (C.Fuzz.failure_to_string f));
  (* the native leg is one-shot, so every native pair must be skipped *)
  Alcotest.(check int) "native pairs skipped" 120
    (List.assoc "fiber<->native" stats.C.Fuzz.skips);
  Alcotest.(check bool) "sem<->fiber checked" true
    (List.assoc "semantics<->fiber" stats.C.Fuzz.agreements > 0)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* the satellite fix: a multishot campaign against a one-shot fiber
   configuration must refuse loudly instead of silently generating
   programs the backend then rejects *)
let multishot_requires_capable_config () =
  match C.Fuzz.campaign ~multishot:true ~seed:1 ~count:1 () with
  | _ -> Alcotest.fail "expected Invalid_argument, campaign ran"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names multishot" true
        (contains (String.lowercase_ascii msg) "multishot")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_word_accounting;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_boundary_roundtrip;
    QCheck_alcotest.to_alcotest prop_clone_independence;
    test "cow privatizes a shared chunk exactly once" clone_cow_notify;
    QCheck_alcotest.to_alcotest prop_cache_invariants;
    test "multishot clones recycle safely through the cache" cache_only_private;
    test "all policies agree on one-shot programs" policy_outcomes_agree;
    test "all policies agree on multishot programs" multishot_outcomes_agree;
    test "cow sharing defers and reduces clone copies" cow_defers_copies;
    test "dwarf unwinds chunked stacks under every policy" dwarf_unwinds_chunked_stacks;
    test "policy-differential campaign is clean" policy_differential_campaign;
    test "multishot campaign agrees sem<->fiber across policies" multishot_campaign_agrees;
    test "multishot campaign refuses a one-shot config" multishot_requires_capable_config;
  ]
