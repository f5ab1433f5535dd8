module F = Retrofit_fiber
module Counter = Retrofit_util.Counter
module Table = Retrofit_util.Table

(* Stack-management strategy lab: the same workloads under every
   {!Retrofit_fiber.Stack_policy}, in the style of the libseff /
   wasmfx segmented-vs-contiguous comparisons.  The default
   copy-and-double policy is the paper's design (§5.2); the segmented
   and large-reserve policies are the alternatives §2.1 describes the
   mainline runtime rejecting (resizing by copying "won the argument"
   against segmented stacks' pointer-stability cost and mmap-hungry
   reservations), quantified here on the cost model. *)

let policies =
  F.Stack_policy.[ copy_double; segmented; large_reserve ]

let run_counters cfg p =
  let compiled = F.Compile.compile p in
  match F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled with
  | F.Machine.Fatal msg, _ -> failwith ("stacklab program failed: " ^ msg)
  | _, counters -> counters

let num c name = string_of_int (Counter.value c name)

let right n = List.init n (fun _ -> Table.Right)

let growth ?(quick = false) () =
  let depth = if quick then 1_000 else 20_000 in
  let p = F.Programs.deep_recursion ~depth in
  let rows =
    List.map
      (fun pol ->
        let c = run_counters (F.Config.with_policy pol F.Config.mc) p in
        [
          F.Stack_policy.name pol;
          num c Counter.Stack_grow;
          num c Counter.Words_copied;
          num c Counter.Chunk_commit;
          num c Counter.Page_fault;
          num c Counter.Instructions;
        ])
      policies
  in
  "Growth strategy (deep recursion inside a handler, depth "
  ^ string_of_int depth
  ^ "):\n  copy-and-double relocates the whole stack on overflow; the\n\
    \  segmented policy links a fresh chunk and the large reserve commits\n\
    \  guard pages, both copying nothing:\n"
  ^ Table.render
      ~align:(Table.Left :: right 5)
      ~header:
        [ "policy"; "growths"; "words copied"; "chunks"; "page faults"; "instructions" ]
      rows

let per_call ?(quick = false) () =
  let iters = if quick then 500 else 20_000 in
  let p = F.Programs.effect_roundtrip ~iters in
  let rows =
    List.map
      (fun pol ->
        let c = run_counters (F.Config.with_policy pol F.Config.mc) p in
        let instr = Counter.value c Counter.Instructions in
        [
          F.Stack_policy.name pol;
          num c Counter.Overflow_check;
          num c Counter.Check_elided;
          num c Counter.Segment_check;
          string_of_int instr;
          Printf.sprintf "%.1f" (float_of_int instr /. float_of_int iters);
        ])
      policies
  in
  "Per-call overhead (perform/resume ping-pong, " ^ string_of_int iters
  ^ " roundtrips):\n  copy-and-double pays a prologue check only outside the red zone;\n\
    \  the segmented policy pays a boundary check on every call (no\n\
    \  elision: chunk edges are not red-zone-safe); the reserve pays\n\
    \  nothing until a guard page faults:\n"
  ^ Table.render
      ~align:(Table.Left :: right 5)
      ~header:
        [
          "policy"; "checks run"; "checks elided"; "segment checks"; "instructions";
          "instr/iter";
        ]
      rows

let cache ?(quick = false) () =
  let iters = if quick then 500 else 20_000 in
  let p = F.Programs.effect_roundtrip ~iters in
  let rows =
    List.map
      (fun pol ->
        let c = run_counters (F.Config.with_policy pol F.Config.mc) p in
        let lookups = Counter.value c Counter.Stack_cache_lookup in
        let hits = Counter.value c Counter.Stack_cache_hit in
        [
          F.Stack_policy.name pol;
          string_of_int lookups;
          string_of_int hits;
          (if lookups = 0 then "-"
           else Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int lookups));
          num c Counter.Chunk_pool_hit;
          num c Counter.Malloc;
        ])
      policies
  in
  "Stack cache and chunk pool (fiber churn: one fiber per roundtrip):\n"
  ^ Table.render
      ~align:(Table.Left :: right 5)
      ~header:[ "policy"; "cache lookups"; "hits"; "hit rate"; "chunk pool hits"; "malloc" ]
      rows

(* Multishot cloning: eager copies vs segmented chunk sharing with
   copy-on-resume.  n-queens is the canonical backtracking workload —
   each captured continuation is resumed once per column, so cloning
   cost dominates and sharing pays exactly when clones touch few of
   the chunks they inherit. *)
let nqueens ?(quick = false) () =
  let n = if quick then 4 else 6 in
  let clone_policies =
    F.Stack_policy.[ copy_double; segmented; segmented_cow; large_reserve ]
  in
  let p = F.Programs.nqueens ~n in
  let rows =
    List.map
      (fun pol ->
        let cfg = F.Config.with_multishot true (F.Config.with_policy pol F.Config.mc) in
        let compiled = F.Compile.compile p in
        let outcome, c = F.Machine.run ~cfuns:F.Programs.standard_cfuns cfg compiled in
        let solutions =
          match outcome with
          | F.Machine.Done v -> string_of_int v
          | F.Machine.Uncaught (l, _) -> "uncaught " ^ l
          | F.Machine.Fatal m -> "fatal: " ^ m
        in
        [
          F.Stack_policy.name pol;
          solutions;
          num c Counter.Cont_copy;
          num c Counter.Words_copied;
          num c Counter.Cont_share;
          num c Counter.Cow_words;
          num c Counter.Instructions;
        ])
      clone_policies
  in
  Printf.sprintf
    "Multishot cloning strategy (n-queens via a Pick effect, n=%d):\n\
    \  every policy eagerly copies the captured fibers on the second\n\
    \  resume except segmented-cow, which bumps chunk refcounts and\n\
    \  privatizes a chunk only when a clone writes to it:\n" n
  ^ Table.render
      ~align:(Table.Left :: right 6)
      ~header:
        [
          "policy"; "solutions"; "clones"; "words copied"; "shares"; "cow words";
          "instructions";
        ]
      rows

let report ?quick () =
  String.concat "\n"
    [ growth ?quick (); per_call ?quick (); cache ?quick (); nqueens ?quick () ]
