(* Differential conformance fuzzer CLI.

   Replays the committed corpus first, then runs a seeded campaign
   cross-checking the three models.  Exit code 0 only when both are
   clean, so CI can gate on it directly. *)

module C = Retrofit_conformance

let () =
  let seed = ref 1 in
  let count = ref 1000 in
  let analyze = ref false in
  let multishot = ref false in
  let skip_corpus = ref false in
  let stack_policy = ref "" in
  let policy_diff = ref false in
  let speclist =
    [
      ("--seed", Arg.Set_int seed, "INT campaign seed (default 1)");
      ("--count", Arg.Set_int count, "INT number of generated programs (default 1000)");
      ( "--analyze",
        Arg.Set analyze,
        " run the static effect-safety analyzer on every program and fail on \
         any Safe/Must claim a backend contradicts" );
      ( "--multishot",
        Arg.Set multishot,
        " multishot campaign: clone continuations on resume in both the \
         semantics machine and the fiber backend and skip the (one-shot) \
         native leg; requires a multishot-capable fiber configuration" );
      ("--skip-corpus", Arg.Set skip_corpus, " skip the corpus replay");
      ( "--stack-policy",
        Arg.Set_string stack_policy,
        "NAME run the fiber backend under this stack policy (copy | segmented \
         | segmented-cow | reserve; default copy)" );
      ( "--policy-diff",
        Arg.Set policy_diff,
        " additionally run every program under each alternative stack policy \
         and diff against the default policy" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz [options]";
  let failed = ref false in
  if not !skip_corpus then begin
    match C.Fuzz.replay_corpus () with
    | [] -> Printf.printf "corpus: %d entries ok\n%!" (List.length C.Corpus.entries)
    | problems ->
        failed := true;
        List.iter
          (fun (name, problem) -> Printf.printf "corpus %s FAILED: %s\n" name problem)
          problems
  end;
  let module F = Retrofit_fiber in
  let policy =
    match !stack_policy with
    | "" -> F.Stack_policy.copy_double
    | name -> (
        match F.Stack_policy.of_string name with
        | Some p -> p
        | None ->
            Printf.eprintf "unknown stack policy %S (try: %s)\n" name
              (String.concat ", " (List.map fst F.Stack_policy.all));
            exit 2)
  in
  let fiber_config =
    F.Config.mc
    |> F.Config.with_policy policy
    |> F.Config.with_multishot !multishot
  in
  let policies = if !policy_diff then C.Fuzz.default_policies else [] in
  let stats =
    C.Fuzz.campaign ~fiber_config ~analyze:!analyze ~policies ~multishot:!multishot
      ~seed:!seed ~count:!count ()
  in
  print_string (C.Fuzz.stats_to_string stats);
  if stats.C.Fuzz.failures <> [] then failed := true;
  exit (if !failed then 1 else 0)
