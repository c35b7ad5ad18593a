(* Streaming moments (Welford's algorithm).

   The workload driver observes millions of per-call figures (RMRs,
   latencies) and must never materialize their history: each observation
   updates count, mean, M2, min and max in O(1), and a [summary] snapshot
   is taken at the end.  Welford's update is numerically stable, and —
   what actually matters here — deterministic: the driver feeds
   observations in a seed-determined order, so the resulting floats are
   reproducible bit-for-bit on a given platform. *)

(* The four moments live in an all-float record, which OCaml stores flat,
   so updating them stores raw doubles; beside an [int] field each store
   would box a fresh float.  An observation therefore allocates nothing. *)
type moments = {
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

type t = { mutable n : int; m : moments }

let create () =
  { n = 0; m = { mu = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity } }

(* Inlined into [add_int], so its float argument is never boxed. *)
let[@inline] add t x =
  t.n <- t.n + 1;
  let m = t.m in
  let delta = x -. m.mu in
  m.mu <- m.mu +. (delta /. float_of_int t.n);
  m.m2 <- m.m2 +. (delta *. (x -. m.mu));
  if x < m.lo then m.lo <- x;
  if x > m.hi then m.hi <- x

let add_int t x = add t (float_of_int x)

type summary = {
  count : int;
  mean : float;
  stddev : float; (* population; 0 for fewer than two observations *)
  min : float; (* 0 when empty *)
  max : float;
}

let summary t =
  if t.n = 0 then { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0 }
  else
    { count = t.n;
      mean = t.m.mu;
      stddev = (if t.n < 2 then 0.0 else sqrt (t.m.m2 /. float_of_int t.n));
      min = t.m.lo;
      max = t.m.hi }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.3f sd=%.3f min=%.0f max=%.0f" s.count s.mean s.stddev
    s.min s.max
