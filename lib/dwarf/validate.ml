module Machine = Retrofit_fiber.Machine
module Vec = Retrofit_util.Vec

type report = {
  probes : int;
  frames : int;
  mismatches : (string * string list * string list) list;
  interp_ops : int;
}

let empty = { probes = 0; frames = 0; mismatches = []; interp_ops = 0 }

(* The unwound names go into [buf], which the caller keeps across
   probes, and the shadow walk is checked against it name by name: a
   probe of a deep stack keeps nothing of its own alive, so a minor
   collection in the middle of it promotes no half-built backtrace.
   The lists are built only to report a mismatch. *)
let compare_traces buf table machine ~ops =
  Vec.clear buf;
  Unwind.iter ~interp_ops:ops table machine (fun e ->
      match Unwind.name e with Some n -> Vec.push buf n | None -> ());
  let i = ref 0 and same = ref true in
  Machine.iter_shadow_backtrace machine (fun n ->
      if !i >= Vec.length buf || not (String.equal (Vec.get buf !i) n) then same := false;
      incr i);
  if !same && !i = Vec.length buf then Ok !i
  else Error (Vec.to_list buf, Machine.shadow_backtrace machine)

let checker table =
  let buf = Vec.create () in
  fun machine ->
    let ops = ref 0 in
    match compare_traces buf table machine ~ops with
    | Ok _ -> Ok ()
    | Error (unwound, shadow) ->
        Error
          (Printf.sprintf "unwound [%s] but shadow is [%s]"
             (String.concat "; " unwound)
             (String.concat "; " shadow))
    | exception Unwind.Unwind_error msg -> Error ("unwind error: " ^ msg)

let max_recorded_mismatches = 10

let run_validated ?cfuns cfg compiled =
  let table = Table.build compiled in
  let report = ref empty in
  let calls = ref 0 in
  let buf = Vec.create () in
  let on_call machine =
    incr calls;
    let ops = ref 0 in
    let r = !report in
    let r =
      match compare_traces buf table machine ~ops with
      | Ok frames -> { r with probes = r.probes + 1; frames = r.frames + frames }
      | Error (unwound, shadow) ->
          let context = Printf.sprintf "probe at call %d" !calls in
          let mismatches =
            if List.length r.mismatches >= max_recorded_mismatches then r.mismatches
            else r.mismatches @ [ (context, unwound, shadow) ]
          in
          { r with probes = r.probes + 1; mismatches }
      | exception Unwind.Unwind_error msg ->
          let context = Printf.sprintf "probe at call %d: %s" !calls msg in
          { r with probes = r.probes + 1; mismatches = r.mismatches @ [ (context, [], []) ] }
    in
    report := { r with interp_ops = r.interp_ops + !ops }
  in
  let outcome, _counters = Machine.run ?cfuns ~on_call cfg compiled in
  (outcome, !report)
