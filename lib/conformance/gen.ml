module Rng = Retrofit_util.Rng
module Ir = Retrofit_fiber.Ir

type cfg = {
  max_fns : int;  (* helper functions generated before main *)
  max_depth : int;  (* expression tree depth *)
  small_count : int;  (* bound for nested recursion counters *)
  big_count : int;
      (* base for the one deep-recursion driver allowed per program,
         sized to overflow [Config.mc]'s initial fiber several times *)
}

let default_cfg =
  {
    max_fns = 5;
    max_depth = 4;
    small_count = 6;
    big_count = 160;
  }

type info = { gi_name : string; gi_arity : int; gi_eff : bool; gi_rec : bool }

type st = {
  rng : Rng.t;
  cfg : cfg;
  mutable pool : info list;  (* earlier functions, oldest first *)
  mutable fresh : int;
  mutable big_left : bool;  (* at most one deep-recursion driver *)
  mutable in_main : bool;
}

let fresh st prefix =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "%s%d" prefix st.fresh

let pick st xs = List.nth xs (Rng.int st.rng (List.length xs))

let plain_fns st = List.filter (fun i -> not i.gi_eff) st.pool

let arity1_fns st = List.filter (fun i -> (not i.gi_eff) && i.gi_arity = 1) st.pool

let eff_fns st = List.filter (fun i -> i.gi_eff) st.pool

let exn_labels = [ "A"; "B" ]

let eff_labels = [ "E1"; "E2" ]

let catch_labels =
  (* user labels plus the built-ins a Try may legitimately observe *)
  [ "A"; "A"; "B"; "B"; "Division_by_zero"; "Unhandled"; "Invalid_argument" ]

(* The first argument of a recursive call is its termination counter
   and is always a literal: small in general, so nested recursion stays
   multiplicative-bounded, with one big draw allowed per program to
   force stack growth. *)
let rec_counter st =
  if st.in_main && st.big_left && Rng.int st.rng 3 = 0 then begin
    st.big_left <- false;
    Ir.Int (st.cfg.big_count + Rng.int st.rng 64)
  end
  else Ir.Int (1 + Rng.int st.rng st.cfg.small_count)

let rec gen_expr st ~depth ~vars ~kvar : Ir.expr =
  let leaf () =
    if vars <> [] && Rng.bool st.rng then Ir.Var (pick st vars)
    else Ir.Int (Rng.int st.rng 21 - 10)
  in
  if depth <= 0 then leaf ()
  else begin
    let sub ?(d = depth - 1) () = gen_expr st ~depth:d ~vars ~kvar in
    let plain = plain_fns st in
    let arity1 = arity1_fns st in
    let choices =
      [
        (18, fun () -> leaf ());
        ( 14,
          fun () ->
            let op =
              pick st
                [ Ir.Add; Ir.Add; Ir.Sub; Ir.Sub; Ir.Mul; Ir.Div; Ir.Lt; Ir.Le; Ir.Eq ]
            in
            Ir.Binop (op, sub (), sub ()) );
        (8, fun () -> Ir.If (sub (), sub (), sub ()));
        ( 6,
          fun () ->
            let x = fresh st "v" in
            Ir.Let (x, sub (), gen_expr st ~depth:(depth - 1) ~vars:(x :: vars) ~kvar)
        );
        (5, fun () -> Ir.Seq (sub (), sub ()));
        (6, fun () -> Ir.Raise (pick st exn_labels, sub ()));
        ( 8,
          fun () ->
            let body = sub () in
            let n = 1 + Rng.int st.rng 2 in
            let rec labels acc = function
              | 0 -> acc
              | n ->
                  let l = pick st catch_labels in
                  labels (if List.mem l acc then acc else l :: acc) (n - 1)
            in
            let cases =
              List.map
                (fun l ->
                  let x = fresh st "e" in
                  (l, x, gen_expr st ~depth:(depth - 1) ~vars:(x :: vars) ~kvar))
                (labels [] n)
            in
            Ir.Trywith (body, cases) );
        (10, fun () -> Ir.Perform (pick st eff_labels, sub ()));
      ]
      @ (if plain = [] then []
         else [ (10, fun () -> gen_call st ~depth ~vars ~kvar (pick st plain)) ])
      @ (if arity1 = [] then []
         else [ (10, fun () -> gen_handle st ~depth ~vars ~kvar) ])
      @ (4, fun () -> Fragment.ext_id (sub ()))
        ::
        (if arity1 = [] then []
         else
           [
             ( 4,
               fun () ->
                 let target = pick st arity1 in
                 let arg = if target.gi_rec then rec_counter st else sub () in
                 Fragment.callback target.gi_name arg );
           ])
      @
      match kvar with
      | None -> []
      | Some k ->
          [
            (14, fun () -> Ir.Continue (Ir.Var k, sub ()));
            (6, fun () -> Ir.Discontinue (Ir.Var k, pick st exn_labels, sub ()));
            ( 10,
              fun () ->
                Ir.Seq
                  (Ir.Continue (Ir.Var k, sub ~d:1 ()), Ir.Continue (Ir.Var k, sub ~d:1 ()))
            );
            ( 4,
              fun () ->
                Ir.Seq
                  ( Ir.Discontinue (Ir.Var k, pick st exn_labels, sub ~d:1 ()),
                    Ir.Continue (Ir.Var k, sub ~d:1 ()) ) );
          ]
    in
    let total = List.fold_left (fun n (w, _) -> n + w) 0 choices in
    let rec select r = function
      | [] -> leaf ()
      | (w, f) :: rest -> if r < w then f () else select (r - w) rest
    in
    select (Rng.int st.rng total) choices
  end

and gen_call st ~depth ~vars ~kvar (target : info) =
  let args =
    List.init target.gi_arity (fun i ->
        if i = 0 && target.gi_rec then rec_counter st
        else gen_expr st ~depth:(depth - 1) ~vars ~kvar)
  in
  Ir.Call (target.gi_name, args)

and gen_handle st ~depth ~vars ~kvar =
  let body = pick st (plain_fns st) in
  let args =
    List.init body.gi_arity (fun i ->
        if i = 0 && body.gi_rec then rec_counter st
        else gen_expr st ~depth:(depth - 1) ~vars ~kvar)
  in
  let arity1 = arity1_fns st in
  let ret = pick st arity1 in
  let exncs =
    List.filter_map
      (fun l ->
        if Rng.int st.rng 100 < 35 then Some (l, (pick st arity1).gi_name) else None)
      exn_labels
  in
  let effcs =
    match eff_fns st with
    | [] -> []
    | effs ->
        List.filter_map
          (fun l ->
            if Rng.int st.rng 100 < 70 then Some (l, (pick st effs).gi_name) else None)
          eff_labels
  in
  Ir.Handle { body_fn = body.gi_name; body_args = args; retc = ret.gi_name; exncs; effcs }

(* A recursive function follows the guarded template
   [if p0 <= 0 then base else ... self(p0 - 1, ...) ...], so every
   self-call strictly decreases the literal counter it was entered
   with. *)
let gen_rec_body st ~name ~params =
  let p0 = List.hd params in
  let vars = params in
  let base = gen_expr st ~depth:2 ~vars ~kvar:None in
  let rec_call =
    Ir.Call
      ( name,
        Ir.Binop (Ir.Sub, Ir.Var p0, Ir.Int 1)
        :: List.map
             (fun _ -> gen_expr st ~depth:1 ~vars ~kvar:None)
             (List.tl params) )
  in
  let step =
    match Rng.int st.rng 4 with
    | 0 -> rec_call
    | 1 -> Ir.Binop (Ir.Add, rec_call, gen_expr st ~depth:2 ~vars ~kvar:None)
    | 2 -> Ir.Seq (gen_expr st ~depth:2 ~vars ~kvar:None, rec_call)
    | _ ->
        let x = fresh st "v" in
        Ir.Let (x, gen_expr st ~depth:2 ~vars ~kvar:None, rec_call)
  in
  Ir.If (Ir.Binop (Ir.Le, Ir.Var p0, Ir.Int 0), base, step)

let gen_fn st =
  let mk_plain () =
    let arity = Rng.int st.rng 3 in
    let name = fresh st "f" in
    let params = List.init arity (fun i -> Printf.sprintf "%s_p%d" name i) in
    let recursive = arity >= 1 && Rng.int st.rng 100 < 45 in
    let body =
      if recursive then gen_rec_body st ~name ~params
      else gen_expr st ~depth:(st.cfg.max_depth - 1) ~vars:params ~kvar:None
    in
    ( Ir.fn name params body,
      { gi_name = name; gi_arity = arity; gi_eff = false; gi_rec = recursive } )
  in
  let mk_eff () =
    let name = fresh st "h" in
    let x = name ^ "_x" and k = name ^ "_k" in
    let body = gen_expr st ~depth:st.cfg.max_depth ~vars:[ x ] ~kvar:(Some k) in
    ( Ir.fn name [ x; k ] body,
      { gi_name = name; gi_arity = 2; gi_eff = true; gi_rec = false } )
  in
  let fn, i = if Rng.int st.rng 100 < 45 then mk_eff () else mk_plain () in
  st.pool <- st.pool @ [ i ];
  fn

let gen rng : Ir.program =
  let cfg = default_cfg in
  let st = { rng; cfg; pool = []; fresh = 0; big_left = true; in_main = false } in
  (* Seed the pool with a guaranteed 1-argument plain function so that
     handlers (which need a return case) can always be formed. *)
  let id_name = fresh st "f" in
  let id_fn = Ir.fn id_name [ id_name ^ "_p0" ] (Ir.Var (id_name ^ "_p0")) in
  st.pool <- [ { gi_name = id_name; gi_arity = 1; gi_eff = false; gi_rec = false } ];
  let n = 2 + Rng.int rng cfg.max_fns in
  let helpers = List.init n (fun _ -> gen_fn st) in
  st.in_main <- true;
  let main_body = gen_expr st ~depth:cfg.max_depth ~vars:[] ~kvar:None in
  st.in_main <- false;
  { Ir.fns = (id_fn :: helpers) @ [ Ir.fn "main" [] main_body ]; main = "main" }

let program_of_seed seed = gen (Rng.create seed)
