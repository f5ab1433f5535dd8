module HS = Retrofit_httpsim

let cell_rows rates (cells : HS.Experiment.degradation_cell list) =
  (* Cells arrive intensity-major in the order of the sweep axes. *)
  let by_intensity = Hashtbl.create 8 in
  List.iter
    (fun (c : HS.Experiment.degradation_cell) ->
      let prev = try Hashtbl.find by_intensity c.intensity with Not_found -> [] in
      Hashtbl.replace by_intensity c.intensity (c :: prev))
    cells;
  let intensities =
    List.sort_uniq compare
      (List.map (fun (c : HS.Experiment.degradation_cell) -> c.intensity) cells)
  in
  List.map
    (fun i ->
      let row = List.rev (Hashtbl.find by_intensity i) in
      Printf.sprintf "%.1fx" i
      :: List.concat_map
           (fun rate ->
             match
               List.find_opt
                 (fun (c : HS.Experiment.degradation_cell) ->
                   c.outcome.HS.Loadgen.offered_rps = rate)
                 row
             with
             | Some c ->
                 [
                   Printf.sprintf "%.1fk" (c.outcome.HS.Loadgen.achieved_rps /. 1000.);
                   Printf.sprintf "%.2f"
                     (float_of_int c.outcome.HS.Loadgen.p99_ns /. 1e6);
                 ]
             | None -> [ "-"; "-" ])
           rates)
    intensities

let taxonomy_line name (o : HS.Loadgen.outcome) =
  Printf.sprintf
    "  %-4s %2.1fx @%2dk: total=%d ok=%d timeout=%d malformed=%d shed=%d 500s=%d \
     retries=%d | faults inj=%d -> malformed=%d retried=%d timeout=%d 500=%d \
     absorbed=%d"
    name 1.0
    (o.HS.Loadgen.offered_rps / 1000)
    o.HS.Loadgen.total_requests o.HS.Loadgen.completed o.HS.Loadgen.timeouts
    o.HS.Loadgen.malformed o.HS.Loadgen.shed o.HS.Loadgen.server_errors
    o.HS.Loadgen.retries o.HS.Loadgen.faults.HS.Loadgen.injected
    o.HS.Loadgen.faults.HS.Loadgen.to_malformed
    o.HS.Loadgen.faults.HS.Loadgen.to_retried
    o.HS.Loadgen.faults.HS.Loadgen.to_timeout
    o.HS.Loadgen.faults.HS.Loadgen.to_server_error
    o.HS.Loadgen.faults.HS.Loadgen.to_absorbed

let report ?(quick = false) () =
  let duration_ms = if quick then 300 else 1_000 in
  let rates = [ 10_000; 20_000; 30_000 ] in
  let sweep = HS.Experiment.degradation ~duration_ms ~rates () in
  let header =
    "intensity"
    :: List.concat_map
         (fun r ->
           let k = string_of_int (r / 1000) ^ "k" in
           [ k ^ " gput"; k ^ " p99ms" ])
         rates
  in
  let align =
    Retrofit_util.Table.Left :: List.map (fun _ -> Retrofit_util.Table.Right) (List.tl header)
  in
  let tables =
    List.map
      (fun (name, cells) ->
        Printf.sprintf "%s\n%s" name
          (Retrofit_util.Table.render ~align ~header (cell_rows rates cells)))
      sweep
  in
  let taxonomy =
    List.filter_map
      (fun (name, cells) ->
        List.find_opt
          (fun (c : HS.Experiment.degradation_cell) ->
            c.intensity = 1.0 && c.outcome.HS.Loadgen.offered_rps = 20_000)
          cells
        |> Option.map (fun (c : HS.Experiment.degradation_cell) ->
               taxonomy_line name c.outcome))
      sweep
  in
  Printf.sprintf
    "Degradation sweep: goodput (req/s) and p99 (ms) vs offered load x fault \
     intensity\n\
     (intensity scales the default fault plan; resilience = 1s deadline, 3 \
     attempts, cap 512)\n\n\
     %s\n\
     Error taxonomy at 1.0x / 20k req/s:\n%s\n"
    (String.concat "\n" tables)
    (String.concat "\n" taxonomy)
