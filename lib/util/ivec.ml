type t = { mutable data : int array; mutable len : int }

(* Slots at or beyond [len] hold stale ints; they are never exposed and,
   being ints, keep nothing alive. *)
let create () = { data = Array.make 8 0; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let out_of_bounds v i =
  invalid_arg (Printf.sprintf "Ivec: index %d out of bounds (len %d)" i v.len)

let get v i =
  if i < 0 || i >= v.len then out_of_bounds v i;
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then out_of_bounds v i;
  Array.unsafe_set v.data i x

let ensure v n =
  if n > Array.length v.data then begin
    let data = Array.make (max n (2 * Array.length v.data)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  if v.len = Array.length v.data then ensure v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Ivec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let top v =
  if v.len = 0 then invalid_arg "Ivec.top: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Ivec.truncate";
  v.len <- n

let append v src =
  ensure v (v.len + src.len);
  Array.blit src.data 0 v.data v.len src.len;
  v.len <- v.len + src.len
