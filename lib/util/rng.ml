(* The xoshiro256** state s0..s3, as four native-endian 64-bit words at
   byte offsets 0, 8, 16 and 24.  A mutable record of [int64] fields
   boxes every state word it stores, so each draw would allocate; words
   read and written through these primitives stay unboxed as long as
   they do not leave the function that computes them. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only to expand a small seed into the 256-bit xoshiro
   state, as recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  set t 0 (splitmix64 state);
  set t 8 (splitmix64 state);
  set t 16 (splitmix64 state);
  set t 24 (splitmix64 state);
  t

let rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))
[@@inline]

(* The xoshiro256** output of a state whose second word is [s1]. *)
let scramble s1 = Int64.(mul (rotl (mul s1 5L) 7) 9L) [@@inline]

(* Advance the state by one step.  A step's output depends only on s1
   before it, so each draw below scrambles s1 and then advances; no
   64-bit word crosses a call, which would box it. *)
let advance t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set t 8 (logxor s1 s2);
  set t 0 (logxor s0 s3);
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45)

let bits64 t =
  let r = scramble (get t 8) in
  advance t;
  r

(* The low 62 bits of the next output, as a tagged [int]. *)
let low62 t =
  let r = Int64.to_int (scramble (get t 8)) land max_int in
  advance t;
  r

(* The top 53 bits of the next output, as a tagged [int]. *)
let top53 t =
  let r = Int64.(to_int (shift_right_logical (scramble (get t 8)) 11)) in
  advance t;
  r

let split t =
  let seed = Int64.to_int (bits64 t) in
  create (seed lxor 0x6a09e667)

(* Rejection sampling to avoid modulo bias.  A top-level loop, so that a
   draw allocates no closure. *)
let rec below t bound =
  let r = low62 t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

(* 53 random bits scaled into [0,1); exact, as they fit a float. *)
let unit_float t = float_of_int (top53 t) /. 9007199254740992.0 [@@inline]

let float t bound = unit_float t *. bound

let bool t = low62 t land 1 = 1

let exponential t ~mean = -.mean *. log1p (-.unit_float t)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
