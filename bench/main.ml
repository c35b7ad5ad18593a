(* Benchmark harness.

   Two layers:

   1. The experiment tables (E1-E13, from Core.Experiment_registry) — the
      paper has no measured tables of its own, so these claim-derived
      tables ARE the reproduction targets; running this binary regenerates
      every one of them (also individually: `dune exec bench/main.exe -- e4`;
      unknown ids are an error).

   2. Bechamel wall-clock benchmarks — one Test.make per registered
      experiment at its reduced parameter set (the cost of regenerating
      it), plus microbenchmarks of the simulator substrate and the
      ablations called out in DESIGN.md (peek cost, snapshot cost, erasure
      cost, adversary stability horizon). *)

open Bechamel
open Toolkit

(* Both layers enumerate Core.Experiment_registry: the full tables run the
   Default parameter sets; the bechamel subjects time the same runs at the
   registry's Reduced sets.  Adding an experiment to the registry adds it
   here automatically. *)

let registry = Core.Experiment_registry.all ()

let run_spec size (spec : Core.Experiment_def.spec) =
  spec.Core.Experiment_def.run ~jobs:1 size

let print_tables names =
  let valid = Core.Experiment_registry.ids () in
  (match List.filter (fun n -> not (List.mem n valid)) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown experiment id(s): %s\nvalid ids: %s\n"
      (String.concat ", " unknown)
      (String.concat " " valid);
    exit 2);
  List.iter
    (fun (spec : Core.Experiment_def.spec) ->
      if names = [] || List.mem spec.Core.Experiment_def.id names then
        List.iter
          (fun t ->
            Core.Report.print (Core.Results.to_report t);
            print_newline ())
          (run_spec Core.Experiment_def.Default spec))
    registry

(* --- bechamel subjects --- *)

(* Table-regeneration benches at the registry's reduced parameter sets, so
   the suite stays fast. *)
let table_benches =
  List.map
    (fun (spec : Core.Experiment_def.spec) ->
      Test.make
        ~name:("table/" ^ spec.Core.Experiment_def.id)
        (Staged.stage (fun () -> run_spec Core.Experiment_def.Reduced spec)))
    registry

(* Substrate microbenchmarks. *)

let sim_workload n =
  let open Smr in
  let ctx = Var.Ctx.create () in
  let vars =
    Array.init n (fun i ->
        Var.Ctx.int ctx ~name:(Printf.sprintf "v%d" i) ~home:(Var.Module i) 0)
  in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n in
  (sim, vars)

let bench_sim_steps =
  Test.make ~name:"sim/1000-steps"
    (Staged.stage (fun () ->
         let open Smr in
         let sim, vars = sim_workload 8 in
         let prog p =
           Program.map (fun () -> 0)
             (Program.for_ 1 125 (fun _ ->
                  Program.Syntax.(
                    let* v = Program.read vars.(p) in
                    Program.write vars.(p) (v + 1))))
         in
         let sim =
           List.fold_left
             (fun sim p -> fst (Sim.run_call sim p ~label:"w" (prog p)))
             sim
             (List.init 8 Fun.id)
         in
         assert (Sim.clock sim > 1000)))

let bench_snapshot =
  (* DESIGN.md decision 2: snapshots are O(1) because state is persistent —
     taking one is just keeping a binding. *)
  Test.make ~name:"sim/snapshot-and-diverge"
    (Staged.stage (fun () ->
         let open Smr in
         let sim, vars = sim_workload 4 in
         let sim = fst (Sim.run_call sim 0 ~label:"w" (Program.map (fun () -> 0) (Program.write vars.(0) 1))) in
         let snapshot = sim in
         let sim' = fst (Sim.run_call sim 1 ~label:"w" (Program.map (fun () -> 0) (Program.write vars.(1) 1))) in
         assert (Sim.total_rmrs snapshot <= Sim.total_rmrs sim')))

let bench_erase =
  Test.make ~name:"sim/erase-replay-64"
    (Staged.stage (fun () ->
         let open Smr in
         let n = 64 in
         let sim, vars = sim_workload n in
         let sim =
           List.fold_left
             (fun sim p ->
               fst
                 (Sim.run_call sim p ~label:"w"
                    (Program.map (fun () -> 0) (Program.write vars.(p) 1))))
             sim
             (List.init n Fun.id)
         in
         ignore (Sim.erase sim [ 7 ])))

let bench_peek =
  (* DESIGN.md decision 1: peeking a pending operation is a pattern match,
     not a re-execution. *)
  Test.make ~name:"sim/peek"
    (Staged.stage
       (let open Smr in
        let sim, vars = sim_workload 2 in
        let sim =
          Sim.begin_call sim 0 ~label:"w"
            (Program.map (fun () -> 0) (Program.write vars.(0) 1))
        in
        fun () -> assert (Sim.peek sim 0 <> None)))

(* Tracing ablation: the instrumented hot paths hold an [Obs.Trace.t
   option] and skip everything on [None], so an untraced run must cost
   the same as before the observability layer existed — compare these two
   subjects to see the overhead of tracing and the (near-)absence of
   overhead when it is off.  Both assert the traced and untraced runs
   compute identical accounting: observation never perturbs the run. *)
let trace_scenario tracer =
  let m = Option.get (Core.Experiment.find_algorithm "cc-flag") in
  let module A = (val m : Core.Signaling.POLLING) in
  let cfg = Core.Experiment.config_for m ~n:16 in
  Core.Scenario.run_phased (module A) ~model:`Cc_wt ~cfg ?tracer ()

let bench_trace_off =
  Test.make ~name:"obs/phased-16-untraced"
    (Staged.stage (fun () ->
         let o = trace_scenario None in
         assert (o.Core.Scenario.violations = [])))

let bench_trace_on =
  Test.make ~name:"obs/phased-16-traced"
    (Staged.stage (fun () ->
         let baseline = trace_scenario None in
         let tr = Obs.Trace.create () in
         let o = trace_scenario (Some tr) in
         assert (o.Core.Scenario.violations = []);
         assert (o.Core.Scenario.total_rmrs = baseline.Core.Scenario.total_rmrs);
         assert (
           int_of_float
             (Obs.Metrics.total (Obs.Trace.metrics tr) "rmr_total")
           = o.Core.Scenario.total_rmrs)))

let bench_adversary_horizon polls =
  Test.make
    ~name:(Printf.sprintf "ablate/adversary-stability-polls-%d" polls)
    (Staged.stage (fun () ->
         let r =
           Core.Adversary.run (module Core.Dsm_broadcast) ~n:32
             ~stability_polls:polls ()
         in
         assert (r.Core.Adversary.participants = 1)))

let micro_benches =
  [ bench_sim_steps; bench_snapshot; bench_erase; bench_peek;
    bench_trace_off; bench_trace_on;
    bench_adversary_horizon 1; bench_adversary_horizon 3;
    bench_adversary_horizon 6 ]

let estimate_ns instance raw =
  match
    Analyze.one
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  with
  | ols -> (
    match Analyze.OLS.estimates ols with
    | Some [ ns ] -> Some ns
    | Some _ | None -> None)
  | exception _ -> None

let run_benchmarks () =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let tests = table_benches @ micro_benches in
  Fmt.pr "== bechamel: wall-clock per regeneration ==@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          match estimate_ns instance raw with
          | Some ns -> Fmt.pr "  %-40s %12.0f ns/run@." name ns
          | None -> Fmt.pr "  %-40s (no estimate)@." name)
        results)
    tests

(* --- machine-readable perf baseline (--json) --- *)

(* The substrate microbenchmarks at a quick quota, one row per subject.
   Subjects are sorted by name: the bechamel result table iterates in hash
   order, and the JSON document must be schema-stable run to run (the
   VALUES are wall-clock measurements and of course vary — CI asserts the
   shape, never the numbers). *)
let micro_json_table () =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.1) ~stabilize:false ()
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        Hashtbl.fold
          (fun name raw acc ->
            match estimate_ns instance raw with
            | Some ns -> (name, ns) :: acc
            | None -> acc)
          results [])
      micro_benches
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
  in
  Core.Results.make ~experiment:"bench" ~part:"micro"
    ~title:"Substrate microbenchmarks (bechamel, quick quota)"
    ~claim:"wall-clock cost per run of the simulator substrate"
    ~columns:Core.Results.[ param "subject"; measure "ns_per_run" ]
    (List.map
       (fun (name, ns) -> Core.Results.[ text name; float ~digits:0 ns ])
       rows)

(* Explorer throughput on the reference configuration of the perf work
   (cc-flag, N=4, three waiters, two polls) — the states/second figure the
   allocation-lean search is judged by, at one and two domains. *)
let explore_json_table () =
  let open Smr in
  let m = Option.get (Core.Experiment.find_algorithm "cc-flag") in
  let module A = (val m : Core.Signaling.POLLING) in
  let n = 4 and polls = 2 in
  let waiter_pids = [ 1; 2; 3 ] in
  let ctx = Var.Ctx.create () in
  let cfg = Core.Signaling.config ~n ~waiters:waiter_pids ~signalers:[ 0 ] in
  let inst = Core.Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    ( 0,
      Explore.of_list
        [ (Core.Signaling.signal_label, inst.Core.Signaling.i_signal 0) ] )
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:polls
               ~until:(fun r -> r = 1)
               (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w) ))
         waiter_pids
  in
  let row jobs =
    let r =
      Explore.check ~jobs ~layout ~model:(Cost_model.dsm layout) ~n ~scripts
        ~property:Core.Signaling.polling_ok ()
    in
    let wall = r.Explore.stats.Explore.wall_s in
    let states = r.Explore.stats.Explore.states in
    Core.Results.
      [ int jobs; int states; float ~digits:4 wall;
        float ~digits:0 (float_of_int states /. Float.max wall 1e-9);
        int r.Explore.histories; bool r.Explore.complete ]
  in
  Core.Results.make ~experiment:"bench" ~part:"explore"
    ~title:
      (Printf.sprintf "Explorer throughput, %s N=%d %d waiters %d polls"
         A.name n (List.length waiter_pids) polls)
    ~claim:"states/second of the exhaustive search, reference configuration"
    ~params:
      Core.Results.
        [ ("algorithm", text A.name); ("n", int n);
          ("waiters", int (List.length waiter_pids)); ("polls", int polls) ]
    ~columns:
      Core.Results.
        [ param "jobs"; measure "states"; measure "wall_s";
          measure "states_per_sec"; measure "histories"; measure "complete" ]
    [ row 1; row 2 ]

(* Symmetry reduction at the 4-waiter reference configuration (cc-flag,
   N=5, four waiters, two polls, monolithic search).  The search stays
   monolithic ([split_depth:0]) so one shared dedup table sees every
   state: under the frontier split each task holds a private table and
   permuted twin subtrees land in different tasks, which understates the
   orbit reduction.  [symmetry_factor] is the measured states ratio
   against the no-symmetry row — CI gates it at >= 10x. *)
let explore_scale_json_table () =
  let open Smr in
  let m = Option.get (Core.Experiment.find_algorithm "cc-flag") in
  let module A = (val m : Core.Signaling.POLLING) in
  let n = 5 and polls = 2 in
  let waiter_pids = [ 1; 2; 3; 4 ] in
  let ctx = Var.Ctx.create () in
  let cfg = Core.Signaling.config ~n ~waiters:waiter_pids ~signalers:[ 0 ] in
  let inst = Core.Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    ( 0,
      Explore.of_list
        [ (Core.Signaling.signal_label, inst.Core.Signaling.i_signal 0) ] )
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:polls
               ~until:(fun r -> r = 1)
               (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w) ))
         waiter_pids
  in
  let symmetry =
    Explore.detect_symmetry
      ~values:(Analysis.Lint.value_domain ~n ~layout)
      (List.map
         (fun w ->
           (w, (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w)))
         waiter_pids)
  in
  assert (Sim.Pid_set.cardinal symmetry = List.length waiter_pids);
  let run ~symmetry =
    Explore.check ~split_depth:0 ~symmetry ~layout
      ~model:(Cost_model.dsm layout) ~n ~scripts
      ~property:Core.Signaling.polling_ok ()
  in
  let plain = run ~symmetry:Sim.Pid_set.empty in
  let reduced = run ~symmetry in
  let row mode (r : Explore.result) =
    let s = r.Explore.stats in
    let wall = s.Explore.wall_s in
    Core.Results.
      [ text mode; int s.Explore.states; float ~digits:4 wall;
        float ~digits:0 (float_of_int s.Explore.states /. Float.max wall 1e-9);
        int s.Explore.fp_distinct; int s.Explore.orbit_hits;
        bool r.Explore.complete;
        float ~digits:2
          (float_of_int plain.Explore.stats.Explore.states
          /. float_of_int (max 1 s.Explore.states)) ]
  in
  Core.Results.make ~experiment:"bench" ~part:"explore-scale"
    ~title:
      (Printf.sprintf
         "Symmetry reduction, %s N=%d %d waiters %d polls (monolithic)"
         A.name n (List.length waiter_pids) polls)
    ~claim:
      "orbit-canonical symmetry reduction shrinks the exhaustive search >= \
       10x at the 4-waiter reference configuration"
    ~params:
      Core.Results.
        [ ("algorithm", text A.name); ("n", int n);
          ("waiters", int (List.length waiter_pids)); ("polls", int polls);
          ("split_depth", int 0) ]
    ~columns:
      Core.Results.
        [ param "mode"; measure "states"; measure "wall_s";
          measure "states_per_sec"; measure "fp_distinct";
          measure "orbit_hits"; measure "complete"; measure "symmetry_factor" ]
    [ row "no-symmetry" plain; row "symmetry" reduced ]

(* Flat-engine throughput under the open-system workload driver — the
   figures the struct-of-arrays refactor is judged by: states/second,
   resident bytes per process, and minor-heap words allocated per step.
   The engine's billing allocates nothing; the words come from
   interpreting the program — the Step node and its continuation, the
   bind closures around it, the vec handle — and from [Op.execute]'s
   result record, and measure 38–44 per step on these rows, independent
   of n and k.  CI bounds them at 56. *)
let load_json_table () =
  let scenario algorithm model =
    let m = Option.get (Core.Experiment.find_algorithm algorithm) in
    Core.Loadgen.scenario ~ways:2 ~algorithm:m ~model
      { Workload.Driver.default_spec with
        seed = 6;
        waiters = 10_000;
        polls_per_waiter = 2;
        signals = 16;
        signal_every = max 1 (4 * 10_000 / 16) }
  in
  let row sc =
    (* warm-up run excluded from the allocation window: first-touch work
       (array growth in the driver, cache population) is not steady state *)
    ignore (Core.Loadgen.run sc);
    let w0 = Gc.minor_words () in
    let r, t = Core.Loadgen.timed sc in
    let words = Gc.minor_words () -. w0 in
    let (module A : Core.Signaling.POLLING) = sc.Core.Loadgen.sc_algorithm in
    Core.Results.
      [ text A.name;
        text (Core.Scenario.model_tag_name sc.Core.Loadgen.sc_model);
        int sc.Core.Loadgen.sc_spec.Workload.Driver.waiters;
        int t.Core.Loadgen.steps;
        float ~digits:4 t.Core.Loadgen.elapsed_s;
        float ~digits:0 t.Core.Loadgen.states_per_sec;
        int t.Core.Loadgen.bytes_per_process;
        float ~digits:1
          (words /. float_of_int (max 1 r.Workload.Driver.r_steps)) ]
  in
  Core.Results.make ~experiment:"bench" ~part:"load"
    ~title:"Flat-engine open-system throughput (k=10000, 16 signals)"
    ~claim:
      "states/second and minor-words/step of the flat simulation engine \
       under the workload driver"
    ~params:Core.Results.[ ("k", int 10_000); ("signals", int 16) ]
    ~columns:
      Core.Results.
        [ param "algorithm"; param "model"; param "k"; measure "steps";
          measure "wall_s"; measure "states_per_sec"; measure "bytes_per_proc";
          measure "minor_words_per_step" ]
    [ row (scenario "cc-flag" `Cc_wt); row (scenario "dsm-broadcast" `Dsm) ]

(* Counter-plane overhead on the flat path: the load part's cc-flag
   scenario run twice, counters off and counters on.  CI gates the
   minor-words/step figure on BOTH rows — arming the planes must add no
   allocation per step — and the hot-cell columns give the
   profile layer a committed baseline (cc-flag concentrates its RMRs on
   one cell). *)
let profile_json_table () =
  let scenario () =
    let m = Option.get (Core.Experiment.find_algorithm "cc-flag") in
    Core.Loadgen.scenario ~ways:2 ~algorithm:m ~model:`Cc_wt
      { Workload.Driver.default_spec with
        seed = 6;
        waiters = 10_000;
        polls_per_waiter = 2;
        signals = 16;
        signal_every = max 1 (4 * 10_000 / 16) }
  in
  let row ~counters_on =
    let sc = scenario () in
    let counters =
      if counters_on then begin
        let _, layout, n = Core.Loadgen.prepare sc in
        Some
          (Obs.Counters.create ~groups:2 ~n
             ~size:(Smr.Var.layout_size layout) ())
      end
      else None
    in
    (* warm-up run excluded from the allocation window, as in the load
       part; the planes are re-zeroed so the measured run's counts stand
       alone *)
    ignore (Core.Loadgen.run ?counters sc);
    (match counters with Some c -> Obs.Counters.reset c | None -> ());
    let w0 = Gc.minor_words () in
    let t0 = Obs.Clock.now_s () in
    let r = Core.Loadgen.run ?counters sc in
    let elapsed = Obs.Clock.elapsed_s ~since:t0 in
    let words = Gc.minor_words () -. w0 in
    let steps = r.Workload.Driver.r_steps in
    let hot_cells, top_cell_rmrs =
      match counters with
      | None -> (0, 0)
      | Some c ->
        let hot = ref 0 and top = ref 0 in
        for a = 0 to Obs.Counters.size c - 1 do
          let v = Obs.Counters.cell_total c ~addr:a Obs.Counters.Rmr in
          if v > 0 then incr hot;
          if v > !top then top := v
        done;
        (!hot, !top)
    in
    Core.Results.
      [ text (if counters_on then "on" else "off");
        int steps;
        float ~digits:4 elapsed;
        float ~digits:0 (float_of_int steps /. Float.max elapsed 1e-9);
        float ~digits:1 (words /. float_of_int (max 1 steps));
        int hot_cells;
        int top_cell_rmrs ]
  in
  Core.Results.make ~experiment:"bench" ~part:"profile"
    ~title:
      "Counter-plane overhead on the flat path (cc-flag cc-wt, k=10000)"
    ~claim:
      "arming Obs.Counters adds no minor words per step (equal on both \
       rows)"
    ~params:Core.Results.[ ("k", int 10_000); ("signals", int 16) ]
    ~columns:
      Core.Results.
        [ param "counters"; measure "steps"; measure "wall_s";
          measure "states_per_sec"; measure "minor_words_per_step";
          measure "hot_cells"; measure "top_cell_rmrs" ]
    [ row ~counters_on:false; row ~counters_on:true ]

(* Per-entry lint wall time — the figure `separation lint --timing`
   reports, committed so the cost profile of the static analyses (two
   extraction passes, the amortized cache interpretation, differential
   fact validation) is tracked like the other substrate numbers.  One row
   per catalog entry; the row set is schema-stable, the seconds are
   wall-clock and never diffed. *)
let lint_json_table () =
  let metrics = Obs.Metrics.create () in
  let reports = Core.Lint_catalog.run ~metrics () in
  let seconds name =
    List.fold_left
      (fun acc (r : Obs.Metrics.row) ->
        if
          r.Obs.Metrics.metric = "lint_entry_seconds_sum"
          && List.mem ("algorithm", name) r.Obs.Metrics.labels
        then acc +. r.Obs.Metrics.value
        else acc)
      0.0
      (Obs.Metrics.rows ~timing:true metrics)
  in
  let rows =
    List.map
      (fun (r : Analysis.Lint.report) ->
        let name = r.Analysis.Lint.entry.Analysis.Registry.name in
        Core.Results.
          [ text name;
            int (List.length r.Analysis.Lint.calls);
            float ~digits:6 (seconds name);
            bool r.Analysis.Lint.ok ])
      reports
  in
  Core.Results.make ~experiment:"bench" ~part:"lint"
    ~title:"Static lint wall time per catalog entry"
    ~claim:
      "wall-clock cost of the two-pass lint (CFG extraction, amortized \
       cache interpretation, independence-fact validation) per registry \
       entry"
    ~columns:
      Core.Results.
        [ param "algorithm"; measure "calls"; measure "wall_s"; measure "ok" ]
    rows

(* Stdout is the JSON document, nothing else: `bench --json > BENCH_N.json`
   must produce a valid file (see README, "Perf baseline"). *)
let run_json () =
  print_string
    (Core.Results.to_json_many
       [ micro_json_table (); explore_json_table ();
         explore_scale_json_table (); load_json_table (); lint_json_table ();
         profile_json_table () ])

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--json" ] -> run_json ()
  | [ "bench-only" ] -> run_benchmarks ()
  | [] ->
    print_tables [];
    run_benchmarks ()
  | names -> print_tables names
