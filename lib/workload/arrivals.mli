(** Arrival processes for the open-system driver: how many logical ticks
    until the next waiter joins.

    Three shapes cover the experiments' needs: a fixed gap (the
    closed-loop baseline), exponential gaps (the classic open system),
    and trains of back-to-back arrivals separated by exponential lulls —
    the heavy-traffic shape that piles registrations up in front of a
    Signal, the worst case for drain-style signalers. *)

type spec =
  | Uniform of int  (** fixed gap, >= 0 ticks *)
  | Poisson of float  (** mean gap in ticks *)
  | Bursty of { burst : int; mean_lull : float }
      (** [burst] arrivals back-to-back, then an exponential lull *)

val spec_name : spec -> string
(** Compact label for reports: ["uniform4"], ["poisson2"],
    ["burst8x100"]. *)

type t
(** A spec plus its (tiny) sampling state — where a burst stands. *)

val validate : spec -> (unit, string) result
(** [Error] with the reason on a negative uniform gap, a Poisson mean or
    burst lull that is not a positive finite number, or a burst below 1. *)

val make : spec -> t
(** Raises [Invalid_argument] on what {!validate} refuses. *)

val next_gap : t -> Rng.t -> int
(** Ticks until the next arrival after this one.  Draws from [rng] only
    for the stochastic shapes, so interleaving arrival sampling with the
    driver's other draws stays seed-deterministic. *)
