(* The heap is three parallel arrays: slot [i] holds the entry with
   priority [prio.(i)], insertion number [seq.(i)] and value [value.(i)].
   Keeping the two keys in [int] arrays means a sift compares and moves
   them without touching the heap's write barrier; only the value moves
   through [caml_modify].  Sifts carry the moving entry in a hole rather
   than swapping at each level. *)
type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

(* An inert filler for the value slots at and beyond [len], so that the
   queue keeps no popped value alive (as in [Vec]). *)
let dummy () : 'a = Obj.magic 0

let create () = { prio = [||]; seq = [||]; value = [||]; len = 0; next_seq = 0 }

let length t = t.len

let is_empty t = t.len = 0

(* Whether (p, s) is served before the entry in slot [j]. *)
let before t p s j = p < t.prio.(j) || (p = t.prio.(j) && s < t.seq.(j))

let move t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  t.value.(dst) <- t.value.(src)

let place t i p s v =
  t.prio.(i) <- p;
  t.seq.(i) <- s;
  t.value.(i) <- v

let grow t =
  let cap = max 16 (2 * t.len) in
  let extend a filler =
    let b = Array.make cap filler in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.prio <- extend t.prio 0;
  t.seq <- extend t.seq 0;
  t.value <- extend t.value (dummy ())

(* Move parents down into the hole at [i] until (p, s) fits there. *)
let rec sift_up t i p s v =
  if i > 0 && before t p s ((i - 1) / 2) then begin
    let parent = (i - 1) / 2 in
    move t ~src:parent ~dst:i;
    sift_up t parent p s v
  end
  else place t i p s v

(* Move the earlier child up into the hole at [i] until (p, s) fits
   there; the heap holds [t.len] entries besides the moving one. *)
let rec sift_down t i p s v =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i p s v
  else begin
    let r = l + 1 in
    let c = if r < t.len && before t t.prio.(r) t.seq.(r) l then r else l in
    if before t p s c then place t i p s v
    else begin
      move t ~src:c ~dst:i;
      sift_down t c p s v
    end
  end

let add t ~priority value =
  if t.len = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) priority s value

let empty name = invalid_arg ("Pqueue." ^ name ^ ": empty queue")

let min_priority t = if t.len = 0 then empty "min_priority" else t.prio.(0)

let take t =
  if t.len = 0 then empty "take"
  else begin
    let v = t.value.(0) in
    let last = t.len - 1 in
    t.len <- last;
    if last > 0 then sift_down t 0 t.prio.(last) t.seq.(last) t.value.(last);
    t.value.(last) <- dummy ();
    v
  end

let pop t =
  if t.len = 0 then None
  else
    let p = t.prio.(0) in
    Some (p, take t)

let peek t = if t.len = 0 then None else Some (t.prio.(0), t.value.(0))

let clear t =
  Array.fill t.value 0 t.len (dummy ());
  t.len <- 0;
  t.next_seq <- 0
