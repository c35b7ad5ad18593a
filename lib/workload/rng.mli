(** Seeded deterministic RNG (splitmix64).

    Everything the workload driver emits must be a function of its spec,
    seed included — CI diffs `separation load` byte-for-byte across runs
    and [--jobs] values — so randomness comes from this explicit,
    seed-created state and never from [Random] or wall time.  Splitmix64
    is one 64-bit add plus a mix per draw: full period and mixing good
    enough for workload shaping (arrival gaps and crash coins, not
    cryptography).  The state is kept unboxed, so the draws the driver
    makes ([int], [bool], [exponential_ticks]) allocate nothing. *)

type t

val create : int -> t
(** A generator from a user seed.  The seed is pre-mixed, so nearby seeds
    (1, 2, 3, …) yield unrelated streams. *)

val next : t -> int64
(** The next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    unless [bound] is positive.  (Modulo bias is irrelevant at workload
    bounds, far below 2^63.) *)

val float : t -> float
(** Uniform in [\[0, 1)], 53 bits of precision. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p] — a biased coin. *)

val exponential_ticks : t -> mean:float -> int
(** Exponentially distributed with the given mean, rounded to the nearest
    integer: the inter-arrival gaps of a Poisson process, in whole ticks.
    An int rather than a float, so that a draw boxes nothing. *)
