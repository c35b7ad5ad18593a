(* The open-system workload layer: seeded RNG, arrival processes, streaming
   stats, and the driver's determinism and accounting invariants.

   The load pipeline's contract is that everything observable is a function
   of the scenario (seed included): CI diffs `separation load` stdout
   across runs and --jobs levels, and these tests pin the same property at
   the library level — identical reports, identical rendered tables — plus
   the steady-state allocation bound and the per-process footprint the flat
   engine is judged by. *)

open Workload

let check_true = Alcotest.(check bool) "expected true" true
let check_int = Alcotest.(check int)
let case name f = Alcotest.test_case name `Quick f

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 1000 do
    check_true (Rng.next a = Rng.next b)
  done;
  let c = Rng.create 43 in
  check_true (Rng.next (Rng.create 42) <> Rng.next c)

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let i = Rng.int r 13 in
    check_true (i >= 0 && i < 13);
    let f = Rng.float r in
    check_true (f >= 0.0 && f < 1.0);
    check_true (Rng.exponential r ~mean:2.0 >= 0.0)
  done

(* --- stats --- *)

let test_stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let m = Stats.summary s in
  check_int "count" 8 m.Stats.count;
  check_true (abs_float (m.Stats.mean -. 5.0) < 1e-9);
  (* population stddev of the classic example is exactly 2 *)
  check_true (abs_float (m.Stats.stddev -. 2.0) < 1e-9);
  check_true (m.Stats.min = 2.0 && m.Stats.max = 9.0);
  let empty = Stats.summary (Stats.create ()) in
  check_int "empty count" 0 empty.Stats.count;
  check_true (empty.Stats.mean = 0.0 && empty.Stats.stddev = 0.0)

let test_stats_add_int_no_alloc () =
  (* The driver makes two observations per completed call.  With the
     moments boxed beside the count, each one allocated 6 minor words. *)
  let s = Stats.create () in
  Stats.add_int s 1;
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    Stats.add_int s (i land 255)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d add_int calls" words calls)
    true (words < 16.);
  check_int "every observation counted" (calls + 1) (Stats.summary s).Stats.count

(* --- arrivals --- *)

let test_arrivals_gaps () =
  let rng = Rng.create 3 in
  let u = Arrivals.make (Arrivals.Uniform 5) in
  for _ = 1 to 100 do
    check_int "uniform gap" 5 (Arrivals.next_gap u rng)
  done;
  let p = Arrivals.make (Arrivals.Poisson 2.0) in
  let total = ref 0 in
  for _ = 1 to 1000 do
    let g = Arrivals.next_gap p rng in
    check_true (g >= 0);
    total := !total + g
  done;
  (* mean 2.0: a thousand draws land well inside [1, 4] on any seed *)
  check_true (!total > 1000 && !total < 4000);
  let b = Arrivals.make (Arrivals.Bursty { burst = 4; mean_lull = 10.0 }) in
  (* within a burst the gap is 0; the burst-closing gap is >= 1 *)
  let gaps = List.init 12 (fun _ -> Arrivals.next_gap b rng) in
  check_true (List.exists (fun g -> g = 0) gaps);
  check_true (List.exists (fun g -> g >= 1) gaps)

(* --- the driver over the catalog (via Core.Loadgen) --- *)

let scenario ?(algorithm = "cc-flag") ?(model = `Cc_wt) ?(k = 400) ?(seed = 11)
    ?(crash_prob = 0.0) ?(leave_early_prob = 0.0) () =
  let m = Option.get (Core.Experiment.find_algorithm algorithm) in
  Core.Loadgen.scenario ~ways:2 ~algorithm:m ~model
    { Driver.default_spec with
      seed;
      waiters = k;
      polls_per_waiter = 3;
      signals = 8;
      signal_every = max 1 (4 * k / 8);
      crash_prob;
      leave_early_prob }

let test_driver_deterministic () =
  (* Same scenario, two runs: the reports (floats included) and the
     rendered table bytes must be identical — the library-level half of
     CI's `separation load` same-seed / jobs-invariance diffs. *)
  List.iter
    (fun (algorithm, model) ->
      let sc = scenario ~algorithm ~model ~crash_prob:0.05 ~leave_early_prob:0.1 () in
      let r1 = Core.Loadgen.run sc and r2 = Core.Loadgen.run sc in
      check_true (r1 = r2);
      let t1 = Core.Loadgen.table [ (sc, r1) ]
      and t2 = Core.Loadgen.table [ (sc, r2) ] in
      Alcotest.(check string)
        "table bytes"
        (Core.Results.to_json t1)
        (Core.Results.to_json t2))
    [ ("cc-flag", `Cc_wt); ("dsm-broadcast", `Dsm) ]

let test_loadgen_roles () =
  (* The driver plays signaler 0 and waiters 1..k.  Every catalog
     algorithm but the single-waiter one gets exactly
     [Algorithms.config_for]'s roles, so E14, E15 and the load benchmarks
     instantiate the layouts they always did; the single-waiter one is
     refused above one waiter rather than narrowed to pid 1 while the
     driver polls from all k. *)
  List.iter
    (fun ((module A : Core.Signaling.POLLING) as m) ->
      List.iter
        (fun k ->
          let sc = scenario ~algorithm:A.name ~k () in
          let what = Printf.sprintf "%s at k = %d" A.name k in
          if A.flexibility.Core.Signaling.max_waiters = Some 1 && k > 1 then
            Alcotest.(check (result unit string))
              (what ^ ": refused")
              (Error
                 (Printf.sprintf
                    "algorithm supports at most 1 waiter(s), %d configured" k))
              (Core.Loadgen.validate sc)
          else begin
            Alcotest.(check (result unit string))
              (what ^ ": admitted") (Ok ()) (Core.Loadgen.validate sc);
            Alcotest.(check bool)
              (what ^ ": config_for's roles")
              true
              (Core.Loadgen.config sc
              = Core.Algorithms.config_for m ~n:(k + 1))
          end)
        [ 0; 1; 2; 7 ])
    Core.Algorithms.polling_algorithms

let test_driver_seed_sensitivity () =
  let r1 = Core.Loadgen.run (scenario ~seed:1 ~crash_prob:0.1 ())
  and r2 = Core.Loadgen.run (scenario ~seed:2 ~crash_prob:0.1 ()) in
  check_true (r1 <> r2)

let test_driver_accounting_invariants () =
  let k = 500 in
  let sc =
    scenario ~algorithm:"dsm-broadcast" ~model:`Dsm ~k ~crash_prob:0.08
      ~leave_early_prob:0.15 ()
  in
  let r = Core.Loadgen.run sc in
  let open Driver in
  check_int "every waiter joins" k r.r_waiters;
  (* every joined waiter either terminates cleanly or crashed mid-poll *)
  check_int "departures" k (r.r_left + r.r_crashes);
  check_true (r.r_left_early <= r.r_left);
  check_true (r.r_crashes > 0 && r.r_left_early > 0);
  check_true (r.r_polls <= k * 3);
  check_int "polls observed = polls summarized" r.r_polls
    r.r_poll_rmrs.Stats.count;
  check_int "signals all issued" 8 r.r_signals;
  check_true r.r_spec_ok;
  check_true (not r.r_fuel_exhausted);
  check_true (r.r_total_rmrs >= r.r_signaler_rmrs)

let test_driver_spec_verdict_detects_violations () =
  (* The streaming Spec 4.1 check must be able to fail: dsm-queue WITHOUT
     the registration-time memo answers false after a completed Signal()
     when a waiter registers between two signals.  Reproduce that shape
     with a degenerate "algorithm" whose poll always returns false. *)
  let open Smr in
  let ctx = Var.Ctx.create () in
  let cell = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let inst =
    { Driver.w_name = "always-false";
      w_poll = (fun _ -> Program.map (fun _ -> 0) (Program.read cell));
      w_signal = (fun _ -> Program.map (fun () -> 0) (Program.write cell 1)) }
  in
  let spec =
    { Driver.default_spec with
      seed = 5;
      waiters = 20;
      signals = 2;
      signal_every = 4;
      arrivals = Arrivals.Uniform 8 }
  in
  let r = Driver.run ~model:Smr.Flat_sim.Dsm ~layout ~n:21 inst spec in
  check_true (not r.Driver.r_spec_ok)

let test_driver_allocation_bounded () =
  (* Steady state allocates a bounded constant per step, independent of k
     and of whether counter planes are armed.  The engine itself — cells,
     caches, accounting, counter planes — is flat arrays and allocates
     nothing; what remains is the program interpretation (the Step node,
     its continuation, the bind closures, the vec handle) and
     [Op.execute]'s result record.  Measured at k = 500 / 4000: 34.7 /
     34.6 words/step for dsm-broadcast under DSM, 23.9 / 23.4 for cc-flag
     under write-through caches, counters off or armed.  Every run must
     stay below 48 and every cc-flag run below 28; a per-step debug name,
     an extra bind per operation, or a decoding closure back on the flag
     read of cc-flag's Poll() (29.8 / 29.4) breaks them. *)
  let words_per_step ~algorithm ~model ~armed k =
    let sc = scenario ~algorithm ~model ~k () in
    let counters =
      if armed then begin
        let _, layout, n = Core.Loadgen.prepare sc in
        Some
          (Obs.Counters.create ~groups:2 ~n
             ~size:(Smr.Var.layout_size layout) ())
      end
      else None
    in
    ignore (Core.Loadgen.run ?counters sc) (* warm-up excluded from the window *);
    let w0 = Gc.minor_words () in
    let r = Core.Loadgen.run ?counters sc in
    (Gc.minor_words () -. w0) /. float_of_int r.Driver.r_steps
  in
  List.iter
    (fun (algorithm, model, armed, bound) ->
      let small = words_per_step ~algorithm ~model ~armed 500
      and large = words_per_step ~algorithm ~model ~armed 4000 in
      let bounded what w =
        Alcotest.(check bool)
          (Printf.sprintf "%s%s k=%s: %.1f words/step < %.0f" algorithm
             (if armed then " (counters armed)" else "")
             what w bound)
          true (w < bound)
      in
      bounded "500" small;
      bounded "4000" large;
      (* constant, not growing with k: allow generous jitter for GC noise *)
      check_true (large < small *. 2.0 +. 16.0))
    [ ("dsm-broadcast", `Dsm, false, 48.0);
      ("cc-flag", `Cc_wt, false, 28.0);
      ("cc-flag", `Cc_wt, true, 28.0) ]

let test_flat_state_sized_by_reach () =
  (* [Flat_sim] caps a process's cache ways and link slots at the layout
     size and allocates link records on the first LL.  cc-flag's layout is
     one cell, so every [ways] builds the same one-line cache, and neither
     algorithm issues an LL: every report field, footprint included, must
     match the default machine's.  Only [r_model], which spells the
     requested ways, may differ. *)
  let run ?(ways = 8) ?(ll_ways = 4) ~algorithm ~model k =
    let sc =
      scenario ~algorithm ~model ~k ~crash_prob:0.05 ~leave_early_prob:0.1 ()
    in
    Core.Loadgen.run
      { sc with Core.Loadgen.sc_ways = ways; sc_ll_ways = ll_ways }
  in
  List.iter
    (fun (algorithm, model) ->
      let base = { (run ~algorithm ~model 400) with Driver.r_model = "" } in
      List.iter
        (fun (ways, ll_ways) ->
          let r = run ~ways ~ll_ways ~algorithm ~model 400 in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s ways=%d ll_ways=%d: same report" algorithm
               r.Driver.r_model ways ll_ways)
            true
            ({ r with Driver.r_model = "" } = base))
        (List.concat_map
           (fun ways -> List.map (fun l -> (ways, l)) [ 1; 4; 64 ])
           [ 1; 8; 64 ]))
    [ ("cc-flag", `Cc_wt); ("cc-flag", `Cc_wb); ("cc-flag", `Cc_lfcu);
      ("dsm-broadcast", `Dsm) ];
  (* The footprint at k = 10^4, per process: 9 words of call state and 2
     state bytes, plus cc-flag's one cache line (3 words) or
     dsm-broadcast's cell and link epoch (2 words).  With 8 ways, 4 eager
     link slots and the stored ordinals they read 354 and 170. *)
  let bytes ~algorithm ~model =
    (run ~algorithm ~model 10_000).Driver.r_bytes_per_process
  in
  let at_most what bound b =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d bytes/process <= %d" what b bound)
      true (b <= bound)
  in
  at_most "cc-flag cc-wt/bus/w8" 98 (bytes ~algorithm:"cc-flag" ~model:`Cc_wt);
  at_most "dsm-broadcast dsm" 90 (bytes ~algorithm:"dsm-broadcast" ~model:`Dsm);
  (* llsc-register's link records appear with its first LL: a Signal()
     issues none, and a first Poll() reads and writes registered[p] before
     its LL on the head counter. *)
  let w, layout, n =
    Core.Loadgen.prepare (scenario ~algorithm:"llsc-register" ~k:2 ())
  in
  let flat =
    Smr.Flat_sim.create ~model:(Core.Loadgen.flat_model ~ways:8 `Cc_wt) ~layout
      ~n ()
  in
  let b0 = Smr.Flat_sim.bytes_per_process flat in
  ignore (Smr.Flat_sim.run_call flat 0 ~label:"signal" (w.Driver.w_signal 0));
  Smr.Flat_sim.begin_call flat 1 ~label:"poll" (w.Driver.w_poll 1);
  Smr.Flat_sim.advance flat 1;
  Smr.Flat_sim.advance flat 1;
  check_int "no LL yet: footprint unchanged" b0
    (Smr.Flat_sim.bytes_per_process flat);
  Smr.Flat_sim.advance flat 1;
  Alcotest.(check bool) "the first LL allocates the link records" true
    (Smr.Flat_sim.bytes_per_process flat > b0)

let test_explore_allocation_bounded () =
  (* The explorer's steady state allocates a bounded constant per search
     state: the child node and its copied metadata, the moves and sleep
     sets, the memory and cost-model steps — and no dedup key beyond its
     packed string.  Measured after a warm-up run: 183.5 words/state for
     cc-flag with 4 waiters and 2 polls, 153.3 for dsm-broadcast with 2
     waiters and 3 polls.  When the table stored the live metadata array
     and memory they were 226.9 and 175.8, which both bounds reject. *)
  let words_per_state (module A : Core.Signaling.POLLING) ~waiters ~polls =
    let s =
      { (Core.Exhaustive.setup (module A)) with
        n = waiters + 1;
        waiters;
        polls }
    in
    let prepared = Core.Exhaustive.prepare s in
    ignore (Core.Exhaustive.search s prepared) (* warm-up *);
    let w0 = Gc.minor_words () in
    let r = Core.Exhaustive.search s prepared in
    let states = r.Smr.Explore.stats.Smr.Explore.states in
    (Gc.minor_words () -. w0) /. float_of_int states
  in
  List.iter
    (fun (name, m, waiters, polls, bound) ->
      let w = words_per_state m ~waiters ~polls in
      Alcotest.(check bool)
        (Printf.sprintf "%s, %d waiters, %d polls: %.1f words/state < %.0f"
           name waiters polls w bound)
        true (w < bound))
    [ ("cc-flag", (module Core.Cc_flag : Core.Signaling.POLLING), 4, 2, 195.0);
      ("dsm-broadcast", (module Core.Dsm_broadcast), 2, 3, 162.0) ]

let test_timeline_sampled () =
  (* Rendering a history bigger than the caps degrades to a sample with an
     explicit marker, and the default caps leave small runs untouched. *)
  let open Smr in
  let n = 80 in
  let ctx = Var.Ctx.create () in
  let cell = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = ref (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n) in
  for p = 0 to n - 1 do
    for _ = 1 to 10 do
      let s, _ =
        Sim.run_call !sim p ~label:"w"
          (Program.map (fun () -> 0) (Program.write cell p))
      in
      sim := s
    done
  done;
  let r = Timeline.render !sim in
  let contains s sub =
    let sl = String.length s and bl = String.length sub in
    let rec go i = i + bl <= sl && (String.sub s i bl = sub || go (i + 1)) in
    go 0
  in
  check_true (contains r "[sampled: 64 of 80 process columns shown]");
  (* ticks are counted among the visible columns only: 64 shown processes
     x 10 calls x 3 event ticks (begin, step, return) *)
  check_true (contains r "of 1920 event ticks shown]");
  (* rows: header + 512 event rows + 2 trailers *)
  check_int "row cap respected" (1 + 512 + 2)
    (List.length (String.split_on_char '\n' (String.trim r)));
  (* an uncapped render of the same history has no marker *)
  let full = Timeline.render ~max_cols:100 ~max_rows:10_000 !sim in
  check_true (not (contains full "[sampled:"))

let suite =
  [ case "rng: seeded and deterministic" test_rng_deterministic;
    case "rng: ranges" test_rng_ranges;
    case "stats: welford moments" test_stats_welford;
    case "stats: add_int allocates nothing" test_stats_add_int_no_alloc;
    case "arrivals: gap laws" test_arrivals_gaps;
    case "driver: same seed, same bytes" test_driver_deterministic;
    case "loadgen: the driver's roles, refused where not admitted"
      test_loadgen_roles;
    case "driver: different seed, different run" test_driver_seed_sensitivity;
    case "driver: accounting invariants under churn"
      test_driver_accounting_invariants;
    case "driver: streaming verdict can fail"
      test_driver_spec_verdict_detects_violations;
    case "driver: steady-state allocation bounded"
      test_driver_allocation_bounded;
    case "flat: state sized by what a run can reach"
      test_flat_state_sized_by_reach;
    case "explore: per-state allocation bounded"
      test_explore_allocation_bounded;
    case "timeline: huge histories render sampled" test_timeline_sampled ]
