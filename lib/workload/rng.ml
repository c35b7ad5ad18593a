(* Seeded deterministic RNG: splitmix64.

   The workload driver's whole output must be a function of the seed — the
   CI diffs `separation load` byte-for-byte across runs and across [--jobs]
   values — so no [Random], no state hidden in a global, and no dependence
   on wall time anywhere.  Splitmix64 is the standard tiny generator for
   this: one 64-bit add per draw, full period, and good enough mixing for
   workload shaping (we are sampling arrival gaps, not doing cryptography). *)

(* The state lives unboxed in 8 bytes: a [mutable] [int64] field would box
   a fresh Int64 (3 words) on every draw, and the driver draws per arrival
   gap and per crash or leave coin.  [mix64], [next] and [float] are
   inlined so their int64 and float results stay unboxed too. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  (* Pre-mix the (small) user seed so nearby seeds yield unrelated
     streams. *)
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (mix64 (Int64.of_int seed));
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix64 s

(* Uniform in [0, bound); bound must be positive.  Modulo bias is
   irrelevant at workload bounds (<< 2^63). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"
  else Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

(* Uniform in [0, 1), 53 bits of precision. *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let bool t p = float t < p

(* Exponential with the given mean, rounded to whole ticks: inter-arrival
   gaps of a Poisson process.  Rounding here, not at the caller, returns an
   immediate int where a float would be boxed. *)
let exponential_ticks t ~mean =
  int_of_float (Float.round (-.mean *. log (1.0 -. float t)))
