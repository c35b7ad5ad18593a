(* E14: amortized CC-vs-DSM curves under open-system heavy traffic.

   The closed-scenario experiments (E1-E5) measure one conversation; this
   one runs the flat engine's open system at participation levels up to
   k = 10^6 and charts the quantity the paper's separation is really about:
   what a Signal() costs the signaler, amortized over the signals it
   issues.  cc-flag pays O(1) RMRs per Signal in the CC model no matter how
   many waiters joined; every read/write DSM solution pays for the waiters
   — dsm-broadcast writes all k flags on every Signal, and dsm-queue's
   drain walks the full registration queue, so both signaler curves grow
   linearly in k while the CC curve stays flat.  (Amortized over *all*
   operations the queue is O(1) — that is E4's closed-scenario point and
   visible here in the rmr/op column — which is precisely why the
   per-Signal view is the one that separates.)

   Every figure in the table is deterministic (seeded driver, logical time
   only); wall-clock throughput belongs to `separation load --perf-out`. *)

let default_ks = [ 1_000; 10_000; 100_000; 1_000_000 ]
let reduced_ks = [ 1_000; 10_000 ]
let signals = 16
let seed = 14

let claim =
  "Secs. 1/5/7 at heavy traffic: amortized RMRs per Signal stay O(1) for \
   cc-flag under CC and grow with k for the read/write DSM solutions"

(* The contenders: the CC O(1) algorithm under its model, the two DSM
   algorithms under theirs. *)
let contenders : ((module Signaling.POLLING) * Scenario.model_tag) list =
  [ ((module Cc_flag), `Cc_wt);
    ((module Dsm_broadcast), `Dsm);
    ((module Dsm_queue), `Dsm) ]

let spec_for k =
  { Workload.Driver.default_spec with
    seed;
    waiters = k;
    polls_per_waiter = 2;
    signals;
    (* spread the signals across the arrival span (~4 ticks of work per
       joining waiter), so drains observe a growing queue *)
    signal_every = max 1 (4 * k / signals);
    arrivals = Workload.Arrivals.Poisson 2.0 }

let row (k, ((module A : Signaling.POLLING), model)) =
  let r =
    Loadgen.run (Loadgen.scenario ~algorithm:(module A) ~model (spec_for k))
  in
  let open Workload.Driver in
  Results.
    [ int k;
      text r.r_algorithm;
      text (Scenario.model_tag_name model);
      int r.r_polls;
      int r.r_signals;
      int r.r_signaler_rmrs;
      float ~digits:2 (rmrs_per_signal r);
      float ~digits:3 (rmrs_per_op r);
      float ~digits:3 r.r_poll_rmrs.Workload.Stats.mean;
      bool r.r_spec_ok;
      int r.r_bytes_per_process ]

let table ?(jobs = 1) ?(ks = default_ks) () =
  let cells =
    List.concat_map (fun k -> List.map (fun c -> (k, c)) contenders) ks
  in
  Results.make ~experiment:"e14"
    ~title:
      (Printf.sprintf
         "E14 (open system, flat engine): amortized RMRs per Signal across \
          k, %d signals, Poisson arrivals — CC flat, DSM growing with k"
         signals)
    ~claim
    ~params:
      [ ("ks", Results.text (String.concat "," (List.map string_of_int ks)));
        ("signals", Results.int signals);
        ("seed", Results.int seed) ]
    ~columns:
      Results.
        [ param "k"; param "algorithm"; param "model"; measure "polls";
          measure "signals"; measure "signaler_rmrs"; measure "rmr/signal";
          measure "rmr/op"; measure "poll_rmr_mean"; measure "spec_ok";
          measure "bytes/proc" ]
    (Parallel.map ~jobs row cells)

let shape = function
  | [ t ] -> (
    let cell k algorithm name =
      let rows =
        List.filter
          (fun row ->
            Results.get t ~row "k" = Results.Int k
            && Results.get t ~row "algorithm" = Results.Text algorithm)
          t.Results.rows
      in
      match rows with
      | [ row ] -> Results.to_float (Results.get t ~row name)
      | _ -> None
    in
    let ks =
      List.sort_uniq compare
        (List.filter_map Results.to_int (Results.column_values t "k"))
    in
    match (ks, List.rev ks) with
    | k0 :: _, kN :: _ -> (
      match
        ( cell k0 "cc-flag" "rmr/signal",
          cell kN "cc-flag" "rmr/signal",
          cell k0 "dsm-broadcast" "rmr/signal",
          cell kN "dsm-broadcast" "rmr/signal",
          cell kN "dsm-queue" "rmr/signal" )
      with
      | Some cc0, Some ccN, Some b0, Some bN, Some qN ->
        let open Experiment_def in
        check
          (cc0 <= 4.0 && ccN <= 4.0)
          "e14: cc-flag RMRs per Signal should be O(1) at every k"
        >>> fun () ->
        check
          (bN >= float_of_int kN /. 4.0)
          "e14: dsm-broadcast RMRs per Signal should be Theta(k)"
        >>> fun () ->
        check
          (qN >= float_of_int kN /. 8.0)
          "e14: dsm-queue's drain should walk Theta(k) registrations per \
           Signal"
        >>> fun () ->
        check
          (k0 = kN || bN > b0 *. 1.5)
          "e14: the DSM per-Signal curve should grow with k"
        >>> fun () ->
        let ok =
          List.for_all
            (fun v -> v = Results.Bool true)
            (Results.column_values t "spec_ok")
        in
        check ok "e14: every run must satisfy Specification 4.1"
      | _ -> Error "e14: missing matrix cells")
    | _ -> Error "e14: no participation levels")
  | _ -> Error "e14: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e14";
      title = "heavy-traffic amortized separation (flat engine, open system)";
      claim;
      shape_note =
        "cc-flag rmr/signal <= 4 at every k; dsm-broadcast and dsm-queue \
         rmr/signal >= k/4 resp. k/8 and growing; every run Spec-4.1 clean";
      run =
        (fun ~jobs size ->
          let ks =
            match size with Default -> default_ks | Reduced -> reduced_ks
          in
          [ table ~jobs ~ks () ]);
      shape }
