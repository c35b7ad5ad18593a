(* Arrival processes for the open-system driver: when does the next waiter
   join, in logical ticks.

   Three shapes cover the experiments' needs: [Uniform] (a fixed gap — the
   closed-loop baseline), [Poisson] (exponential gaps — the classic open
   system), and [Bursty] (trains of back-to-back arrivals separated by
   exponential lulls — the heavy-traffic shape that piles registrations up
   in front of a Signal, the worst case for drain-style signalers). *)

type spec =
  | Uniform of int (* fixed gap, >= 0 ticks *)
  | Poisson of float (* mean gap in ticks *)
  | Bursty of { burst : int; mean_lull : float }
      (* [burst] arrivals back-to-back, then an exponential lull *)

let spec_name = function
  | Uniform g -> Printf.sprintf "uniform%d" g
  | Poisson m -> Printf.sprintf "poisson%.0f" m
  | Bursty { burst; mean_lull } -> Printf.sprintf "burst%dx%.0f" burst mean_lull

type t = { spec : spec; mutable in_burst : int }

(* The one set of rules an arrival spec must satisfy: [make] raises from
   it, [Driver.validate] reports it, and the CLI's converter refuses what
   it refuses.  Non-finite means are refused with the non-positive ones:
   an exponential draw with an infinite or NaN mean has no tick count. *)
let validate = function
  | Uniform g when g < 0 ->
    Error (Printf.sprintf "uniform gap must be >= 0, got %d" g)
  | Poisson m when not (m > 0.0 && Float.is_finite m) ->
    Error (Printf.sprintf "Poisson mean must be a positive number, got %g" m)
  | Bursty { burst; _ } when burst < 1 ->
    Error (Printf.sprintf "burst must be >= 1, got %d" burst)
  | Bursty { mean_lull = l; _ } when not (l > 0.0 && Float.is_finite l) ->
    Error (Printf.sprintf "mean lull must be a positive number, got %g" l)
  | Uniform _ | Poisson _ | Bursty _ -> Ok ()

let make spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Arrivals: " ^ msg));
  { spec; in_burst = 0 }

(* Ticks until the next arrival after this one. *)
let next_gap t rng =
  match t.spec with
  | Uniform g -> g
  | Poisson mean -> int_of_float (Float.round (Rng.exponential rng ~mean))
  | Bursty { burst; mean_lull } ->
    t.in_burst <- t.in_burst + 1;
    if t.in_burst < burst then 0
    else begin
      t.in_burst <- 0;
      1 + int_of_float (Float.round (Rng.exponential rng ~mean:mean_lull))
    end
