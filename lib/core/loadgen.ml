(* Open-system load generation over the catalog: the glue between the
   signaling algorithms (typed, [Signaling.POLLING]) and the workload
   driver (structural, [Workload.Driver.instance]).

   Everything here is shared by the `separation load` CLI subcommand, the
   heavy-traffic experiments (E14, E15) and the determinism tests, so one
   scenario definition produces identical numbers everywhere.  All table
   content is a function of the scenario (seed included) — wall-clock
   figures are returned separately ({!timed}) and must never reach a table
   that CI diffs across runs or [--jobs] levels. *)

open Smr

type scenario = {
  sc_algorithm : (module Signaling.POLLING);
  sc_model : Scenario.model_tag;
  sc_ways : int; (* cache lines per process under a CC model *)
  sc_ll_ways : int;
  sc_spec : Workload.Driver.spec;
}

let scenario ?(ways = 8) ?(ll_ways = 4) ~algorithm ~model spec =
  { sc_algorithm = algorithm;
    sc_model = model;
    sc_ways = ways;
    sc_ll_ways = ll_ways;
    sc_spec = spec }

(* The flat engine's model spec for an experiment model tag. *)
let flat_model ~ways tag : Flat_sim.model_spec =
  match Scenario.cc_of_tag tag with
  | None -> Flat_sim.Dsm
  | Some (protocol, interconnect) ->
    Flat_sim.Cc { protocol; interconnect; ways }

(* The roles the driver plays: pid 0 signals, pids 1..k join as waiters.
   Not narrowed to what the algorithm supports, as [Algorithms.config_for]
   narrows a single-waiter algorithm to pid 1: the driver runs every
   waiter, so the algorithm must accept them all. *)
let config sc =
  let k = sc.sc_spec.Workload.Driver.waiters in
  Signaling.config ~n:(k + 1)
    ~waiters:(List.init k (fun i -> i + 1))
    ~signalers:[ 0 ]

let validate sc =
  let (module A : Signaling.POLLING) = sc.sc_algorithm in
  Signaling.validate_config A.flexibility (config sc)

(* Instantiate the scenario's algorithm and freeze its memory layout —
   everything a driver run needs besides the optional observability hooks.
   Split out of {!run} so the profiler can arm counter planes (sized from
   the returned layout) on the same instantiation path. *)
let prepare sc =
  let (module A : Signaling.POLLING) = sc.sc_algorithm in
  let cfg = config sc in
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let winst =
    { Workload.Driver.w_name = A.name;
      w_poll = inst.Signaling.i_poll;
      w_signal = inst.Signaling.i_signal }
  in
  (winst, layout, cfg.Signaling.n)

let run ?counters ?on_cache sc =
  let winst, layout, n = prepare sc in
  Workload.Driver.run ~ll_ways:sc.sc_ll_ways ?counters ?on_cache
    ~model:(flat_model ~ways:sc.sc_ways sc.sc_model)
    ~layout ~n winst sc.sc_spec

type timing = {
  elapsed_s : float;
  states_per_sec : float; (* simulation steps per wall-clock second *)
  steps : int;
  bytes_per_process : int;
}

(* Run with a wall clock around it.  The report stays deterministic; the
   timing is for stderr / perf files only. *)
let timed sc =
  let t0 = Obs.Clock.now_s () in
  let r = run sc in
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  let steps = r.Workload.Driver.r_steps in
  ( r,
    { elapsed_s = elapsed;
      states_per_sec =
        (if elapsed <= 0.0 then 0.0 else float_of_int steps /. elapsed);
      steps;
      bytes_per_process = r.Workload.Driver.r_bytes_per_process } )

(* One table row per scenario report — the deterministic `separation load`
   output. *)
let columns =
  Results.
    [ param "algorithm"; param "model"; param "k"; param "seed";
      measure "arrived"; measure "left"; measure "crashes"; measure "polls";
      measure "polls_true"; measure "signals"; measure "clock";
      measure "steps"; measure "rmrs"; measure "messages";
      measure "signaler_rmrs"; measure "rmr/signal"; measure "rmr/op";
      measure "poll_rmr_mean"; measure "poll_lat_mean";
      measure "signal_lat_mean"; measure "spec_ok"; measure "bytes/proc" ]

let row sc (r : Workload.Driver.report) =
  let open Workload.Driver in
  Results.
    [ text r.r_algorithm;
      text (Scenario.model_tag_name sc.sc_model);
      int sc.sc_spec.waiters;
      int sc.sc_spec.seed;
      int r.r_waiters;
      int r.r_left;
      int r.r_crashes;
      int r.r_polls;
      int r.r_polls_true;
      int r.r_signals;
      int r.r_clock;
      int r.r_steps;
      int r.r_total_rmrs;
      int r.r_total_messages;
      int r.r_signaler_rmrs;
      float ~digits:2 (rmrs_per_signal r);
      float ~digits:3 (rmrs_per_op r);
      float ~digits:3 r.r_poll_rmrs.Workload.Stats.mean;
      float ~digits:1 r.r_poll_latency.Workload.Stats.mean;
      float ~digits:1 r.r_signal_latency.Workload.Stats.mean;
      bool r.r_spec_ok;
      int r.r_bytes_per_process ]

let table ?(title = "open-system load: streaming accounting per scenario")
    scenarios_and_reports =
  Results.make ~experiment:"load" ~title
    ~claim:
      "flat-engine open-system runs: deterministic streaming accounting \
       (same seed, same table, independent of --jobs)"
    ~columns
    (List.map (fun (sc, r) -> row sc r) scenarios_and_reports)

(* Perf sidecar (NOT deterministic: wall-clock figures).  Written to the
   file `separation load --perf-out` names; CI asserts its fields with jq. *)
let perf_json reports_and_timings =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n  \"schema\": \"separation-load-perf/1\",\n  \"runs\": [\n";
  let add_run i ((sc : scenario), (t : timing)) =
    let (module A : Signaling.POLLING) = sc.sc_algorithm in
    Buffer.add_string b
      (Printf.sprintf
         "    {\"algorithm\": \"%s\", \"model\": \"%s\", \"k\": %d, \
          \"steps\": %d, \"elapsed_s\": %.6f, \"states_per_sec\": %.1f, \
          \"bytes_per_process\": %d}%s\n"
         A.name
         (Scenario.model_tag_name sc.sc_model)
         sc.sc_spec.Workload.Driver.waiters t.steps t.elapsed_s
         t.states_per_sec t.bytes_per_process
         (if i = List.length reports_and_timings - 1 then "" else ","))
  in
  List.iteri add_run reports_and_timings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
