open Retrofit_util

let test name f = Alcotest.test_case name `Quick f

let check_int = Alcotest.(check int)

let push_pop () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "top" 99 (Vec.top v);
  check_int "pop" 99 (Vec.pop v);
  check_int "length after pop" 99 (Vec.length v);
  check_int "get" 42 (Vec.get v 42)

let bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 3 out of bounds (len 3)")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "neg" (Invalid_argument "Vec: index -1 out of bounds (len 3)")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let truncate_clear () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 2;
  Alcotest.(check (list int)) "truncated" [ 1; 2 ] (Vec.to_list v);
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v)

let set_get () =
  let v = Vec.of_list [ 10; 20; 30 ] in
  Vec.set v 1 99;
  Alcotest.(check (list int)) "set" [ 10; 99; 30 ] (Vec.to_list v)

let conversions () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Alcotest.(check (array int)) "to_array" [| 3; 1; 2 |] (Vec.to_array v);
  let w = Vec.map (fun x -> x * 2) v in
  Alcotest.(check (list int)) "map" [ 6; 2; 4 ] (Vec.to_list w);
  check_int "fold" 6 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 1) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let copy_independent () =
  let v = Vec.of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.push w 3;
  check_int "orig" 2 (Vec.length v);
  check_int "copy" 3 (Vec.length w)

let iteri_order () =
  let v = Vec.of_list [ 5; 6; 7 ] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (0, 5); (1, 6); (2, 7) ] (List.rev !acc)

let prop_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let prop_push_pop =
  QCheck.Test.make ~name:"vec push then pop-all reverses" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      let out = ref [] in
      while not (Vec.is_empty v) do
        out := Vec.pop v :: !out
      done;
      !out = xs)

(* Ivec: the int-only vector behind operand stacks and trap mirrors.
   The pushes grow it from its initial capacity of 8 through several
   doublings. *)
let ivec_list v = List.init (Ivec.length v) (Ivec.get v)

let ivec_ops () =
  let v = Ivec.create () in
  for i = 0 to 99 do
    Ivec.push v i
  done;
  check_int "length" 100 (Ivec.length v);
  check_int "top" 99 (Ivec.top v);
  check_int "pop" 99 (Ivec.pop v);
  Ivec.set v 3 42;
  check_int "get" 42 (Ivec.get v 3);
  Ivec.truncate v 5;
  Alcotest.(check (list int)) "truncated" [ 0; 1; 2; 42; 4 ] (ivec_list v);
  let w = Ivec.create () in
  Ivec.push w 7;
  Ivec.append w v;
  Alcotest.(check (list int)) "append" [ 7; 0; 1; 2; 42; 4 ] (ivec_list w);
  Alcotest.check_raises "get past length"
    (Invalid_argument "Ivec: index 5 out of bounds (len 5)") (fun () ->
      ignore (Ivec.get v 5));
  Alcotest.check_raises "truncate past length" (Invalid_argument "Ivec.truncate")
    (fun () -> Ivec.truncate v 6);
  Ivec.clear v;
  Alcotest.(check bool) "cleared" true (Ivec.is_empty v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ivec.pop: empty") (fun () ->
      ignore (Ivec.pop v));
  Alcotest.check_raises "top empty" (Invalid_argument "Ivec.top: empty") (fun () ->
      ignore (Ivec.top v))

let suite =
  [
    test "push/pop/get" push_pop;
    test "bounds checking" bounds;
    test "truncate and clear" truncate_clear;
    test "set" set_get;
    test "conversions" conversions;
    test "copy is independent" copy_independent;
    test "iteri order" iteri_order;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_push_pop;
    test "ivec push, pop, truncate, append" ivec_ops;
  ]
