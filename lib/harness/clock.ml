let now_ns () = Monotonic_clock.now ()

let elapsed_ns f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, Int64.sub t1 t0)
