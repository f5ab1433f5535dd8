type verdict = Safe | May | Must

type clause = Eff_clause | Exn_clause

type kind =
  | Possibly_unhandled of { effect_name : string }
  | Effect_across_c_frame of { effect_name : string; cfun : string }
  | Dead_handler_clause of { clause : clause; label : string; case_fn : string }
  | May_resume_twice of { origin : string }
  | May_leak of { origin : string }
  | Redzone_unsound of {
      claimed_frame : int;
      computed_frame : int;
      claimed_leaf : bool;
      computed_leaf : bool;
    }
  | Megamorphic_dispatch of { effect_name : string; outcomes : int }
  | Unbounded_cost of { counter : string; cause : string }

type t = {
  kind : kind;
  verdict : verdict;
  fn : string;  (** source function the finding anchors to *)
  path : string list;  (** call-graph witness from [main], outermost first *)
  site : string;  (** printed fragment of the offending expression *)
}

type report = {
  diags : t list;
  unhandled : verdict;
  one_shot : verdict;
}

let verdict_to_string = function Safe -> "safe" | May -> "may" | Must -> "must"

let kind_label = function
  | Possibly_unhandled _ -> "possibly-unhandled"
  | Effect_across_c_frame _ -> "effect-across-c-frame"
  | Dead_handler_clause _ -> "dead-handler-clause"
  | May_resume_twice _ -> "may-resume-twice"
  | May_leak _ -> "may-leak"
  | Redzone_unsound _ -> "red-zone-unsound"
  | Megamorphic_dispatch _ -> "megamorphic-dispatch"
  | Unbounded_cost _ -> "unbounded-cost"

let kind_detail = function
  | Possibly_unhandled { effect_name } ->
      Printf.sprintf "effect %s may escape to toplevel" effect_name
  | Effect_across_c_frame { effect_name; cfun } ->
      Printf.sprintf "effect %s may reach the C frame of %s with no intervening \
                      handler"
        effect_name cfun
  | Dead_handler_clause { clause; label; case_fn } ->
      Printf.sprintf "%s clause for %s (case %s) can never fire"
        (match clause with Eff_clause -> "effect" | Exn_clause -> "exception")
        label case_fn
  | May_resume_twice { origin } ->
      Printf.sprintf "continuation captured for %s may be resumed twice on one \
                      path"
        origin
  | May_leak { origin } ->
      Printf.sprintf "continuation captured for %s may be neither continued nor \
                      discontinued"
        origin
  | Redzone_unsound { claimed_frame; computed_frame; claimed_leaf; computed_leaf }
    ->
      Printf.sprintf
        "overflow check elided but recomputed frame disagrees (claimed %d words \
         leaf=%b, computed %d words leaf=%b)"
        claimed_frame claimed_leaf computed_frame computed_leaf
  | Megamorphic_dispatch { effect_name; outcomes } ->
      Printf.sprintf
        "perform %s may dispatch to %d distinct handler clauses — not an \
         inline-cache candidate"
        effect_name outcomes
  | Unbounded_cost { counter; cause } ->
      Printf.sprintf "no finite static bound for counter %s (%s)" counter cause

(* A witness step renders as [name(file:line)] when the caller supplies
   a locator — the listing position of the function's definition, in a
   terminal-clickable [file:line] shape. *)
let step_to_string ?loc name =
  match loc with
  | None -> name
  | Some f -> (
      match f name with
      | Some pos -> Printf.sprintf "%s(%s)" name pos
      | None -> name)

let to_string ?loc d =
  Printf.sprintf "%-22s %-4s %s: %s%s%s" (kind_label d.kind)
    (verdict_to_string d.verdict)
    d.fn (kind_detail d.kind)
    (if d.path = [] then ""
     else
       " [" ^ String.concat " -> " (List.map (step_to_string ?loc) d.path) ^ "]")
    (if d.site = "" then "" else "\n    at " ^ d.site)

(* [Ir.program_to_string] prints one function per line, in program
   order, so the definition of the [i]-th function sits on line [i + 1]
   of the listing. *)
let locator ~file (p : Retrofit_fiber.Ir.program) name =
  List.find_index
    (fun (f : Retrofit_fiber.Ir.fn) -> f.Retrofit_fiber.Ir.fn_name = name)
    p.Retrofit_fiber.Ir.fns
  |> Option.map (fun i -> Printf.sprintf "%s:%d" file (i + 1))

(* Deterministic report order: by kind label, function, then detail. *)
let sort_key d = (kind_label d.kind, d.fn, kind_detail d.kind, d.site)

let sorted diags = List.sort (fun a b -> compare (sort_key a) (sort_key b)) diags

(* Findings that differ only in their call-graph witness are one
   finding: keep the shortest (then lexicographically least) path so
   reports stay deterministic and the count reflects distinct
   kind/verdict/function/site facts. *)
let dedup diags =
  let better a b =
    compare (List.length a.path, a.path) (List.length b.path, b.path) < 0
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let key = (sort_key d, verdict_to_string d.verdict) in
      match Hashtbl.find_opt tbl key with
      | Some prev when not (better d prev) -> ()
      | _ -> Hashtbl.replace tbl key d)
    diags;
  sorted (Hashtbl.fold (fun _ d acc -> d :: acc) tbl [])

let report_to_string ?loc r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verdicts: unhandled=%s one-shot=%s\n"
       (verdict_to_string r.unhandled)
       (verdict_to_string r.one_shot));
  if r.diags = [] then Buffer.add_string b "no findings\n"
  else
    List.iter
      (fun d -> Buffer.add_string b (to_string ?loc d ^ "\n"))
      (dedup r.diags);
  Buffer.contents b
