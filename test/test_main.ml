(* Test runner: one alcotest binary aggregating every suite. *)

let () =
  Alcotest.run "separation"
    [ ("op", Test_op.suite);
      ("var", Test_var.suite);
      ("program", Test_program.suite);
      ("memory", Test_memory.suite);
      ("cost-models", Test_cost_models.suite);
      ("history", Test_history.suite);
      ("sim", Test_sim.suite);
      ("schedule", Test_schedule.suite);
      ("random-programs", Test_random_programs.suite);
      ("locks", Test_locks.suite);
      ("sync-objects", Test_sync_objects.suite);
      ("signaling-spec", Test_signaling_spec.suite);
      ("algorithms", Test_algorithms.suite);
      ("adversary", Test_adversary.suite);
      ("gme", Test_gme.suite);
      ("timing", Test_timing.suite);
      ("explore", Test_explore.suite);
      ("crash", Test_crash.suite);
      ("ablation", Test_ablation.suite);
      ("report", Test_report.suite);
      ("lint", Test_lint.suite);
      ("experiments", Test_experiments.suite);
      ("flat", Test_flat.suite);
      ("workload", Test_workload.suite);
      ("timeline", Test_timeline.suite);
      ("trace", Test_trace.suite);
      ("profile", Test_profile.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite) ]
