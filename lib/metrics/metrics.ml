(* A process-wide metrics registry: named, labelled instruments
   (counter / gauge / histogram) with an atomic snapshot and a
   Prometheus-style text exposition.

   The registry unifies the scattered per-subsystem statistics —
   fiber-machine probe counters, stack-cache hit/miss stats, the
   loadgen error taxonomy, scheduler run-queue accounting — behind one
   schema.  It is disabled by default: every mutator returns after a
   single branch on [enabled], so the pinned tables and frozen counters
   of the benchmark suite are bit-identical whether or not the library
   is linked.  Hot call sites should additionally guard with [on ()] so
   the disabled path allocates nothing (no label lists, no closures).

   Determinism: snapshots and expositions are sorted by (name, labels),
   never by hash order, so two runs of the same seeded workload render
   byte-identical text. *)

module Histogram = Retrofit_util.Histogram
module Counter_tbl = Retrofit_util.Counter

type labels = (string * string) list

type instrument =
  | Counter of int ref
  | Gauge of int ref
  | Hist of Histogram.t

let tbl : (string * labels, instrument) Hashtbl.t = Hashtbl.create 64

let enabled = ref false

let on () = !enabled

(* Enable for the duration of [f], restoring the previous state: tests
   and scoped experiment runs must not leak enablement. *)
let scoped f =
  let saved = !enabled in
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := saved) f

let reset () = Hashtbl.reset tbl

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let find_or_add name labels make =
  let key = (name, norm_labels labels) in
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
      let i = make () in
      Hashtbl.add tbl key i;
      i

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let inc ?(labels = []) ?(by = 1) name =
  if !enabled then
    match find_or_add name labels (fun () -> Counter (ref 0)) with
    | Counter c -> c := !c + by
    | _ -> kind_mismatch name

let set_gauge ?(labels = []) name v =
  if !enabled then
    match find_or_add name labels (fun () -> Gauge (ref 0)) with
    | Gauge g -> g := v
    | _ -> kind_mismatch name

let default_hist_max = 60_000_000_000

let observe ?(max_value = default_hist_max) name v =
  if !enabled then
    match find_or_add name [] (fun () -> Hist (Histogram.create ~max_value ())) with
    | Hist h -> Histogram.record h v
    | _ -> kind_mismatch name

(* Fold a whole pre-recorded histogram into the registry's instrument
   (creating it as a copy on first sight), preserving bucket sums. *)
let observe_histogram ?(labels = []) name src =
  if !enabled then begin
    let key = (name, norm_labels labels) in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.add tbl key (Hist (Histogram.copy src))
    | Some (Hist h) -> Histogram.merge_into ~dst:h src
    | Some _ -> kind_mismatch name
  end

(* Ingest a fiber machine's [Util.Counter] table as registry counters
   under "fiber_". *)
let merge_counter_table table =
  if !enabled then
    List.iter (fun (name, v) -> inc ~by:v ("fiber_" ^ name)) (Counter_tbl.to_list table)

let get ?(labels = []) name =
  match Hashtbl.find_opt tbl (name, norm_labels labels) with
  | Some (Counter c) -> !c
  | Some (Gauge g) -> !g
  | Some (Hist h) -> Histogram.count h
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Snapshots and exposition *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Hist_v of {
      count : int;
      saturated : int;
      min_v : int;
      max_v : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

type sample = { name : string; labels : labels; value : value }

let compare_sample a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot () =
  Hashtbl.fold
    (fun (name, labels) inst acc ->
      let value =
        match inst with
        | Counter c -> Counter_v !c
        | Gauge g -> Gauge_v !g
        | Hist h ->
            let q p =
              if Histogram.count h = 0 then 0 else Histogram.value_at_percentile h p
            in
            Hist_v
              {
                count = Histogram.count h;
                saturated = Histogram.saturated h;
                min_v = Histogram.min_value h;
                max_v = Histogram.max_recorded h;
                p50 = q 50.0;
                p90 = q 90.0;
                p99 = q 99.0;
              }
      in
      { name; labels; value } :: acc)
    tbl []
  |> List.sort compare_sample

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let quantile_labels labels q = norm_labels (("quantile", q) :: labels)

(* Prometheus text exposition (version 0.0.4 flavoured): one # TYPE
   line per metric name, then one line per labelled sample.  Histograms
   render as summaries with fixed quantiles plus _count / _saturated. *)
let to_prometheus () =
  let samples = snapshot () in
  let buf = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      let type_line kind =
        if s.name <> !last_name then begin
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name kind);
          last_name := s.name
        end
      in
      match s.value with
      | Counter_v v ->
          type_line "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) v)
      | Gauge_v v ->
          type_line "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) v)
      | Hist_v h ->
          type_line "summary";
          List.iter
            (fun (q, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" s.name
                   (render_labels (quantile_labels s.labels q))
                   v))
            [ ("0.5", h.p50); ("0.9", h.p90); ("0.99", h.p99) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels) h.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_saturated%s %d\n" s.name (render_labels s.labels)
               h.saturated))
    samples;
  Buffer.contents buf
