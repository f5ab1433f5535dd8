type kind = Leaf_small | Leaf_mid | Leaf_big | Nonleaf

type t = { fn_name : string; kind : kind; body_bytes : int }

let make fn_name kind ~body_bytes =
  if body_bytes <= 0 then invalid_arg "Fn_meta.make: body_bytes must be positive";
  { fn_name; kind; body_bytes }

let frame_words_of_kind = function
  | Leaf_small -> 8
  | Leaf_mid -> 24
  | Leaf_big -> 48
  | Nonleaf -> 12

let checked ~red_zone kind =
  match red_zone with
  | None -> false
  | Some rz -> (
      match kind with
      | Nonleaf -> true
      | Leaf_small | Leaf_mid | Leaf_big -> frame_words_of_kind kind > rz)

(* Size of one emitted check sequence, as in [Retrofit_fiber.Otss];
   defined here to keep the libraries independent. *)
let check_bytes = 12

let otss ~red_zone fns =
  List.fold_left
    (fun acc f ->
      acc + f.body_bytes + if checked ~red_zone f.kind then check_bytes else 0)
    0 fns
