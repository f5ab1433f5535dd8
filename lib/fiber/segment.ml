module Vec = Retrofit_util.Vec

(* A chunk is a reference-counted window of committed words.  Sharing
   ([rc] > 1) only arises from [share_clone]; a write to a shared chunk
   replaces the writer's chunk record with a private copy, leaving the
   other owners on the original (copy-on-write). *)
type chunk = { mutable rc : int; data : int array }

type t = {
  seg_base : int;  (* reservation floor *)
  seg_top : int;  (* one past the highest word *)
  sg_ext_words : int;  (* uniform extension size; 0 = not extensible *)
  head_lo : int;  (* head chunk covers [head_lo, seg_top) *)
  mutable head : chunk;
      (* backs the top [Array.length head.data] words of the head chunk;
         below them, down to [head_lo], an on-demand segment's words read
         0 until first written *)
  exts : chunk Vec.t;
      (* exts.(i) covers [head_lo - (i+1)*ext, head_lo - i*ext) *)
  mutable notify_cow : int -> unit;
  mutable cached : int;  (* stack-cache entries holding this segment *)
}

let no_notify (_ : int) = ()

(* The words of a segment whose words were dropped: none.  The empty
   array is a single shared atom, so [==] recognises it. *)
let no_words = [||]

(* Words an on-demand segment backs at creation: the largest array
   OCaml allocates on the minor heap. *)
let first_backing = 256

let make ~base ~reserve ~committed ~ext_words ~backed =
  {
    seg_base = base;
    seg_top = base + reserve;
    sg_ext_words = ext_words;
    head_lo = base + reserve - committed;
    head = { rc = 1; data = Array.make backed 0 };
    exts = Vec.create ();
    notify_cow = no_notify;
    cached = 0;
  }

let create_reserved ~base ~reserve ~committed ~ext_words =
  if committed <= 0 then invalid_arg "Segment.create_reserved: committed must be positive";
  if committed > reserve then
    invalid_arg "Segment.create_reserved: committed exceeds the reservation";
  if ext_words < 0 then invalid_arg "Segment.create_reserved: negative ext_words";
  make ~base ~reserve ~committed ~ext_words ~backed:committed

let create ~base ~size =
  if size <= 0 then invalid_arg "Segment.create: size must be positive";
  create_reserved ~base ~reserve:size ~committed:size ~ext_words:0

let create_on_demand ~base ~size =
  if size <= 0 then invalid_arg "Segment.create_on_demand: size must be positive";
  make ~base ~reserve:size ~committed:size ~ext_words:0 ~backed:(min size first_backing)

let base t = t.seg_base

let top t = t.seg_top

let limit t = t.head_lo - (Vec.length t.exts * t.sg_ext_words)

let size t = t.seg_top - limit t

let reserve t = t.seg_top - t.seg_base

let ext_words t = t.sg_ext_words

let ext_count t = Vec.length t.exts

let is_flat t =
  t.head_lo = t.seg_base && Vec.is_empty t.exts
  && Array.length t.head.data = t.seg_top - t.seg_base

let contains t addr = addr >= limit t && addr < t.seg_top

let check t addr =
  if not (contains t addr) then
    invalid_arg
      (Printf.sprintf "Segment: address %d outside [%d, %d)" addr (limit t) t.seg_top)

(* Address -> chunk in O(1): the head's backed words first (the flat
   fast path and the hot top-of-stack region), otherwise index
   arithmetic over the uniform extension chunks. *)
let ext_index t addr = (t.head_lo - 1 - addr) / t.sg_ext_words

(* A dropped segment raises what an access to its empty array did. *)
let dropped () = invalid_arg "index out of bounds"

(* Below the head's backed words: an unbacked word, an extension
   chunk's, or outside the segment. *)
let read_below t addr =
  check t addr;
  if addr >= t.head_lo then if t.head.data == no_words then dropped () else 0
  else
    let i = ext_index t addr in
    let c = Vec.get t.exts i in
    c.data.(addr - (t.head_lo - ((i + 1) * t.sg_ext_words)))

(* Inlined at each caller: the backed head words are where the machine's
   frames are. *)
let[@inline] read t addr =
  let d = t.head.data in
  let lo = t.seg_top - Array.length d in
  if addr >= lo && addr < t.seg_top then Array.unsafe_get d (addr - lo)
  else read_below t addr

let privatize_head t =
  let c = t.head in
  if c.rc > 1 then begin
    c.rc <- c.rc - 1;
    t.head <- { rc = 1; data = Array.copy c.data };
    t.notify_cow (Array.length c.data)
  end

let privatize_ext t i =
  let c = Vec.get t.exts i in
  if c.rc > 1 then begin
    c.rc <- c.rc - 1;
    Vec.set t.exts i { rc = 1; data = Array.copy c.data };
    t.notify_cow (Array.length c.data)
  end

(* Back the head's words down to [addr], at least doubling them: the
   backed words move to the high end of a fresh array. *)
let back t addr =
  if t.head.data == no_words then dropped ();
  privatize_head t;
  let d = t.head.data in
  let n = Array.length d in
  let want = min (t.seg_top - t.head_lo) (max (2 * n) (t.seg_top - addr)) in
  let grown = Array.make want 0 in
  Array.blit d 0 grown (want - n) n;
  t.head <- { rc = 1; data = grown }

let rec write_slow t addr v =
  let lo = t.seg_top - Array.length t.head.data in
  if addr >= lo && addr < t.seg_top then begin
    if t.head.rc > 1 then privatize_head t;
    Array.unsafe_set t.head.data (addr - lo) v
  end
  else begin
    check t addr;
    if addr >= t.head_lo then begin
      back t addr;
      write_slow t addr v
    end
    else
      let i = ext_index t addr in
      if (Vec.get t.exts i).rc > 1 then privatize_ext t i;
      (Vec.get t.exts i).data.(addr - (t.head_lo - ((i + 1) * t.sg_ext_words)))
      <- v
  end

(* Inlined at each caller, as [read] is: a private, backed head word is
   written in place, and anything else takes [write_slow]. *)
let[@inline] write t addr v =
  let c = t.head in
  let lo = t.seg_top - Array.length c.data in
  if addr >= lo && addr < t.seg_top && c.rc = 1 then Array.unsafe_set c.data (addr - lo) v
  else write_slow t addr v

let can_extend t =
  t.sg_ext_words > 0 && limit t - t.sg_ext_words >= t.seg_base

let extend t arr =
  if t.sg_ext_words = 0 then invalid_arg "Segment.extend: segment is not extensible";
  if Array.length arr <> t.sg_ext_words then
    invalid_arg "Segment.extend: chunk has the wrong size";
  if limit t - t.sg_ext_words < t.seg_base then
    invalid_arg "Segment.extend: reservation exhausted";
  Vec.push t.exts { rc = 1; data = arr }

let strip t =
  let freed = ref [] in
  while not (Vec.is_empty t.exts) do
    let c = Vec.pop t.exts in
    if c.rc = 1 then freed := c.data :: !freed else c.rc <- c.rc - 1
  done;
  !freed

let fully_private t =
  t.head.rc = 1 && not (Vec.exists (fun c -> c.rc > 1) t.exts)

let release t =
  t.head.rc <- t.head.rc - 1;
  Vec.iter (fun c -> c.rc <- c.rc - 1) t.exts;
  Vec.clear t.exts

let share_clone t ~base =
  t.head.rc <- t.head.rc + 1;
  let exts = Vec.copy t.exts in
  Vec.iter (fun c -> c.rc <- c.rc + 1) exts;
  {
    seg_base = base;
    seg_top = base + (t.seg_top - t.seg_base);
    sg_ext_words = t.sg_ext_words;
    head_lo = base + (t.head_lo - t.seg_base);
    head = t.head;
    exts;
    notify_cow = no_notify;
    cached = 0;
  }

let set_notify_cow t f = t.notify_cow <- f

let cached t = t.cached

let set_cached t n = t.cached <- n

(* Writes that land in a chunk another segment still maps.  [write]
   never makes one: it copies a shared chunk first. *)
let shared_write_count = ref 0

let shared_writes () = !shared_write_count

let chunk_at t addr =
  check t addr;
  if addr >= t.head_lo then begin
    if addr < t.seg_top - Array.length t.head.data && t.head.data != no_words then
      back t addr;
    (t.head, addr - (t.seg_top - Array.length t.head.data))
  end
  else
    let e = ext_index t addr in
    (Vec.get t.exts e, addr - (t.head_lo - ((e + 1) * t.sg_ext_words)))

let poke t addr v =
  let c, i = chunk_at t addr in
  if c.rc > 1 then incr shared_write_count;
  c.data.(i) <- v

let set_rc t addr n = (fst (chunk_at t addr)).rc <- n

let drop_words t =
  if Vec.is_empty t.exts && t.head.rc = 1 then t.head <- { rc = 1; data = no_words }

let zero t =
  if t.head.data == no_words then
    t.head <- { rc = 1; data = Array.make (t.seg_top - t.head_lo) 0 }
  else Array.fill t.head.data 0 (Array.length t.head.data) 0;
  Vec.iter (fun c -> Array.fill c.data 0 (Array.length c.data) 0) t.exts

let blit_into ~src ~dst =
  let src_size = size src and dst_size = size dst in
  if dst_size < src_size then invalid_arg "Segment.blit_into: destination too small";
  if is_flat src && is_flat dst then
    Array.blit src.head.data 0 dst.head.data (dst_size - src_size) src_size
  else begin
    let src_lo = limit src in
    let delta = dst.seg_top - src.seg_top in
    for addr = src_lo to src.seg_top - 1 do
      write dst (addr + delta) (read src addr)
    done
  end
