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
  exts : chunk Vec.t;
      (* exts.(i) covers [head_lo - (i+1)*ext, head_lo - i*ext) *)
  mutable notify_cow : int -> unit;
  mutable cached : int;  (* stack-cache entries holding this segment *)
}

let no_notify (_ : int) = ()

let create_reserved ~base ~reserve ~committed ~ext_words =
  if committed <= 0 then invalid_arg "Segment.create_reserved: committed must be positive";
  if committed > reserve then
    invalid_arg "Segment.create_reserved: committed exceeds the reservation";
  if ext_words < 0 then invalid_arg "Segment.create_reserved: negative ext_words";
  {
    seg_base = base;
    seg_top = base + reserve;
    sg_ext_words = ext_words;
    head_lo = base + reserve - committed;
    head = { rc = 1; data = Array.make committed 0 };
    exts = Vec.create ();
    notify_cow = no_notify;
    cached = 0;
  }

let create ~base ~size =
  if size <= 0 then invalid_arg "Segment.create: size must be positive";
  create_reserved ~base ~reserve:size ~committed:size ~ext_words:0

let base t = t.seg_base

let top t = t.seg_top

let limit t = t.head_lo - (Vec.length t.exts * t.sg_ext_words)

let size t = t.seg_top - limit t

let reserve t = t.seg_top - t.seg_base

let ext_words t = t.sg_ext_words

let ext_count t = Vec.length t.exts

let is_flat t = t.head_lo = t.seg_base && Vec.is_empty t.exts

let contains t addr = addr >= limit t && addr < t.seg_top

let check t addr =
  if not (contains t addr) then
    invalid_arg
      (Printf.sprintf "Segment: address %d outside [%d, %d)" addr (limit t) t.seg_top)

(* Address -> chunk in O(1): head first (the flat fast path and the hot
   top-of-stack region), otherwise index arithmetic over the uniform
   extension chunks. *)
let ext_index t addr = (t.head_lo - 1 - addr) / t.sg_ext_words

let read t addr =
  if addr >= t.head_lo && addr < t.seg_top then t.head.data.(addr - t.head_lo)
  else begin
    check t addr;
    let i = ext_index t addr in
    let c = Vec.get t.exts i in
    c.data.(addr - (t.head_lo - ((i + 1) * t.sg_ext_words)))
  end

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

let write t addr v =
  if addr >= t.head_lo && addr < t.seg_top then begin
    if t.head.rc > 1 then privatize_head t;
    t.head.data.(addr - t.head_lo) <- v
  end
  else begin
    check t addr;
    let i = ext_index t addr in
    if (Vec.get t.exts i).rc > 1 then privatize_ext t i;
    (Vec.get t.exts i).data.(addr - (t.head_lo - ((i + 1) * t.sg_ext_words)))
    <- v
  end

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
  if addr >= t.head_lo then (t.head, addr - t.head_lo)
  else
    let e = ext_index t addr in
    (Vec.get t.exts e, addr - (t.head_lo - ((e + 1) * t.sg_ext_words)))

let poke t addr v =
  let c, i = chunk_at t addr in
  if c.rc > 1 then incr shared_write_count;
  c.data.(i) <- v

let set_rc t addr n = (fst (chunk_at t addr)).rc <- n

(* The words of a segment whose words were dropped: none.  The empty
   array is a single shared atom, so [==] recognises it. *)
let no_words = [||]

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
