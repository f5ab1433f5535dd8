let bytes_per_instruction = 5

(* prologue + epilogue common to all functions *)
let function_overhead_bytes = 8

(* compare against the threshold, conditional branch, and the cold-path
   call to the growth routine *)
let check_bytes = 12

let needs_check ~red_zone ~is_leaf ~frame_words =
  not (is_leaf && frame_words <= red_zone)

let checked (cfg : Config.t) (f : Compile.cfn) =
  match cfg.kind with
  | Config.Stock -> false
  | Config.Mc ->
      needs_check ~red_zone:cfg.red_zone ~is_leaf:f.is_leaf
        ~frame_words:f.frame_words

let function_size cfg (f : Compile.cfn) =
  let body = (f.code_end - f.entry) * bytes_per_instruction in
  let check = if checked cfg f then check_bytes else 0 in
  function_overhead_bytes + body + check

let total cfg (compiled : Compile.compiled) =
  Array.fold_left (fun acc f -> acc + function_size cfg f) 0 compiled.fns

let checked_functions cfg (compiled : Compile.compiled) =
  Array.fold_left (fun acc f -> acc + if checked cfg f then 1 else 0) 0 compiled.fns
