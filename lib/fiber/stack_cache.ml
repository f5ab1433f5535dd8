type bucket = { mutable segs : Segment.t list; mutable count : int }

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  puts : int;
  rejected : int;
}

let zero_stats = { lookups = 0; hits = 0; misses = 0; puts = 0; rejected = 0 }

type t = {
  buckets : (int, bucket) Hashtbl.t;
  order : bucket Retrofit_util.Vec.t;
      (* the buckets in creation order, so [iter] walks them without
         allocating a closure *)
  max_per_bucket : int;
  max_total_words : int;
  mutable total_words : int;
  mutable total_count : int;
  mutable version : int; (* put, take and clear calls, never reset *)
  (* Per-instance lifetime event counts.  These back the observability
     layer (metrics gauges, the DESIGN.md ablation) and are
     deliberately not machine counters: a cache can be shared across
     machine runs, and each experiment reads its own window via
     [scoped_stats] (or calls [reset_stats]) so back-to-back runs in
     one process never see each other's traffic. *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_puts : int;
  mutable s_rejected : int;
}

let create ?(max_per_bucket = 64) ?(max_total_words = max_int) () =
  if max_per_bucket < 0 then invalid_arg "Stack_cache.create: max_per_bucket";
  if max_total_words < 0 then invalid_arg "Stack_cache.create: max_total_words";
  {
    buckets = Hashtbl.create 8;
    order = Retrofit_util.Vec.create ();
    max_per_bucket;
    max_total_words;
    total_words = 0;
    total_count = 0;
    version = 0;
    s_lookups = 0;
    s_hits = 0;
    s_misses = 0;
    s_puts = 0;
    s_rejected = 0;
  }

let bucket t size =
  match Hashtbl.find_opt t.buckets size with
  | Some b -> b
  | None ->
      let b = { segs = []; count = 0 } in
      Hashtbl.add t.buckets size b;
      Retrofit_util.Vec.push t.order b;
      b

let put t ~size seg =
  t.version <- t.version + 1;
  let accepted =
    if
      t.max_per_bucket > 0
      && size <= t.max_total_words - t.total_words
    then begin
      let b = bucket t size in
      if b.count < t.max_per_bucket then begin
        b.segs <- seg :: b.segs;
        b.count <- b.count + 1;
        Segment.set_cached seg (Segment.cached seg + 1);
        t.total_words <- t.total_words + size;
        t.total_count <- t.total_count + 1;
        true
      end
      else false
    end
    else false
  in
  if accepted then t.s_puts <- t.s_puts + 1 else t.s_rejected <- t.s_rejected + 1

let take t ~size =
  t.version <- t.version + 1;
  t.s_lookups <- t.s_lookups + 1;
  match Hashtbl.find_opt t.buckets size with
  | Some ({ segs = seg :: rest; _ } as b) ->
      b.segs <- rest;
      b.count <- b.count - 1;
      t.total_words <- t.total_words - size;
      t.total_count <- t.total_count - 1;
      t.s_hits <- t.s_hits + 1;
      Segment.set_cached seg (Segment.cached seg - 1);
      Segment.zero seg;
      Some seg
  | _ ->
      t.s_misses <- t.s_misses + 1;
      None

let iter t f =
  for i = 0 to Retrofit_util.Vec.length t.order - 1 do
    List.iter f (Retrofit_util.Vec.get t.order i).segs
  done

let population t = t.total_count

let version t = t.version

let total_words t = t.total_words

let stats t =
  {
    lookups = t.s_lookups;
    hits = t.s_hits;
    misses = t.s_misses;
    puts = t.s_puts;
    rejected = t.s_rejected;
  }

let reset_stats t =
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_misses <- 0;
  t.s_puts <- 0;
  t.s_rejected <- 0

let diff_stats a b =
  {
    lookups = a.lookups - b.lookups;
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    puts = a.puts - b.puts;
    rejected = a.rejected - b.rejected;
  }

let scoped_stats t f =
  let before = stats t in
  let result = f () in
  (result, diff_stats (stats t) before)

let clear t =
  t.version <- t.version + 1;
  iter t (fun seg -> Segment.set_cached seg (Segment.cached seg - 1));
  Hashtbl.reset t.buckets;
  Retrofit_util.Vec.clear t.order;
  t.total_words <- 0;
  t.total_count <- 0
