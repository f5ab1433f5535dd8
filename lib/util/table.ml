type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render ?(align = []) ~header rows =
  let ncols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let align_of i = match List.nth_opt align i with Some a -> a | None -> Left in
  let render_row row =
    row
    |> List.mapi (fun i cell -> pad (align_of i) (List.nth widths i) cell)
    |> String.concat "  "
    |> fun s -> String.trim (" " ^ s) |> fun s -> s
  in
  let rule = widths |> List.map (fun w -> String.make w '-') |> String.concat "  " in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let render_kv kvs =
  let width =
    List.fold_left (fun acc (k, _) -> Stdlib.max acc (String.length k)) 0 kvs
  in
  kvs
  |> List.map (fun (k, v) -> Printf.sprintf "%s : %s" (pad Left width k) v)
  |> String.concat "\n"
  |> fun s -> s ^ "\n"

let bar_chart entries =
  if entries = [] then ""
  else begin
    let max_value = List.fold_left (fun acc (_, v) -> Stdlib.max acc v) 1.0 entries in
    let label_width =
      List.fold_left (fun acc (l, _) -> Stdlib.max acc (String.length l)) 0 entries
    in
    let scale v = int_of_float (Float.round (v /. max_value *. 50.0)) in
    let baseline_col = scale 1.0 in
    let buf = Buffer.create 256 in
    List.iter
      (fun (label, v) ->
        let n = Stdlib.max 0 (scale v) in
        let bar = Bytes.make (Stdlib.max (n + 1) (baseline_col + 1)) ' ' in
        Bytes.fill bar 0 n '#';
        if baseline_col < Bytes.length bar then Bytes.set bar baseline_col '|';
        Buffer.add_string buf
          (Printf.sprintf "%s  %s %.3f\n" (pad Left label_width label)
             (Bytes.to_string bar) v))
      entries;
    Buffer.contents buf
  end
