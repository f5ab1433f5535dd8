module M = Retrofit_macro
module H = Retrofit_harness

type row = {
  workload : string;
  stock_ms : float;
  normalized : (string * float) list;
  checksum : int;
}

let quick_size w =
  (* conservative shrink that keeps every workload meaningful *)
  let d = M.Workload.default_size w in
  match M.Workload.name w with
  | "binarytrees" -> d - 4
  | "nqueens" -> d - 2
  | "sexp" -> d - 3
  | "huffman" -> d / 8
  | "kmeans" -> d / 8
  | _ -> max 1 (d / 4)

let runtime_name (module R : M.Runtime.RUNTIME) = R.name

(* Runs are interleaved across the runtime variants (stock, mc, rz0,
   rz32, stock, mc, ...) so that machine noise — CPU contention,
   frequency excursions — hits every variant alike; each variant's
   median is then taken over its own runs. *)
let rows ?(quick = false) () =
  let runs = if quick then 1 else 9 in
  let warmups = if quick then 0 else 1 in
  List.map
    (fun w ->
      let size = if quick then quick_size w else M.Workload.default_size w in
      let checksum = ref 0 in
      let variants = Array.of_list M.Runtime.all in
      let samples = Array.make_matrix (Array.length variants) runs 0.0 in
      Array.iter
        (fun r ->
          for _ = 1 to warmups do
            checksum := M.Workload.run_with w r ~size
          done)
        variants;
      for run = 0 to runs - 1 do
        Array.iteri
          (fun vi r ->
            let _, dt =
              H.Clock.elapsed_ns (fun () ->
                  checksum := Sys.opaque_identity (M.Workload.run_with w r ~size))
            in
            samples.(vi).(run) <- Int64.to_float dt)
          variants
      done;
      let times =
        Array.to_list
          (Array.mapi
             (fun vi r -> (runtime_name r, Retrofit_util.Stats.median samples.(vi)))
             variants)
      in
      let stock = List.assoc "stock" times in
      {
        workload = M.Workload.name w;
        stock_ms = stock /. 1e6;
        normalized = List.map (fun (n, t) -> (n, t /. stock)) times;
        checksum = !checksum;
      })
    M.Registry.all

let variant_names = List.map (fun (module R : M.Runtime.RUNTIME) -> R.name) M.Runtime.all

let geomeans rows =
  List.map
    (fun variant ->
      let values =
        rows |> List.map (fun r -> List.assoc variant r.normalized) |> Array.of_list
      in
      (variant, Retrofit_util.Stats.geomean values))
    variant_names

let report ?quick () =
  let rows = rows ?quick () in
  let header = "workload" :: "stock (ms)" :: List.tl variant_names in
  let body =
    List.map
      (fun r ->
        r.workload
        :: Printf.sprintf "%.1f" r.stock_ms
        :: List.filter_map
             (fun (name, v) ->
               if name = "stock" then None else Some (Printf.sprintf "%.3f" v))
             r.normalized)
      rows
  in
  let gm = geomeans rows in
  let gm_row =
    "geomean" :: ""
    :: List.filter_map
         (fun (name, v) ->
           if name = "stock" then None else Some (Printf.sprintf "%.3f" v))
         gm
  in
  let table =
    Retrofit_util.Table.render
      ~align:
        [
          Retrofit_util.Table.Left; Retrofit_util.Table.Right; Retrofit_util.Table.Right;
          Retrofit_util.Table.Right; Retrofit_util.Table.Right;
        ]
      ~header
      (body @ [ gm_row ])
  in
  let chart =
    Retrofit_util.Table.bar_chart
      (List.map (fun r -> (r.workload, List.assoc "mc" r.normalized)) rows)
  in
  "Fig 4: macro benchmark time normalized to stock\n\
   (prologue checks injected per the red-zone rule; paper: geomean < 1.01,\n\
   32 of 54 programs within 5 %)\n\n" ^ table ^ "\nMC / stock (| marks 1.0):\n" ^ chart
