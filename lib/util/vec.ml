type 'a t = { mutable data : 'a array; mutable len : int }

(* The backing array may contain stale slots beyond [len]; they are never
   exposed.  [Obj.magic 0] is only used as an inert filler for empty slots. *)
let dummy () : 'a = Obj.magic 0

let create ?(capacity = 8) () =
  { data = Array.make (max capacity 1) (dummy ()); len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let ensure v n =
  if n > Array.length v.data then begin
    let cap = max n (2 * Array.length v.data) in
    let data = Array.make cap (dummy ()) in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let append v src =
  ensure v (v.len + src.len);
  Array.blit src.data 0 v.data v.len src.len;
  v.len <- v.len + src.len

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- dummy ();
  x

let top v =
  if v.len = 0 then invalid_arg "Vec.top: empty";
  v.data.(v.len - 1)

let clear v =
  Array.fill v.data 0 v.len (dummy ());
  v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  Array.fill v.data n (v.len - n) (dummy ());
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let to_array v = Array.sub v.data 0 v.len

let of_list xs =
  let v = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (push v) xs;
  v

let map f v =
  let w = create ~capacity:(max 1 v.len) () in
  iter (fun x -> push w (f x)) v;
  w

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let copy v = { data = Array.copy v.data; len = v.len }
