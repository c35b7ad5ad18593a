(* The observability planes and their consumers: counter-plane unit
   semantics, the profiler's attribution tables (deterministic, and the
   separation visible in them), and the coverage signatures built on the
   same planes. *)

open Test_util

(* --- Obs.Counters unit semantics --- *)

let test_counters_planes () =
  let c = Obs.Counters.create ~groups:2 ~pc_slots:4 ~n:3 ~size:2 () in
  Obs.Counters.set_group c ~pid:2 ~group:1;
  check_int "default group" 0 (Obs.Counters.group_of c ~pid:1);
  check_int "assigned group" 1 (Obs.Counters.group_of c ~pid:2);
  Obs.Counters.bump c ~pid:0 ~addr:0 ~pc:0 Obs.Counters.Rmr;
  Obs.Counters.bump c ~pid:0 ~addr:0 ~pc:1 Obs.Counters.Rmr;
  Obs.Counters.bump c ~pid:2 ~addr:1 ~pc:0 Obs.Counters.Rmr;
  Obs.Counters.bump c ~pid:2 ~addr:1 ~pc:9 Obs.Counters.Local;
  Obs.Counters.bump_messages c ~pid:0 ~addr:0 3;
  Obs.Counters.bump_messages c ~pid:2 ~addr:0 2;
  (* cell plane is per group *)
  check_int "group 0 cell 0 rmr" 2
    (Obs.Counters.cell_count c ~group:0 ~addr:0 Obs.Counters.Rmr);
  check_int "group 1 cell 1 rmr" 1
    (Obs.Counters.cell_count c ~group:1 ~addr:1 Obs.Counters.Rmr);
  check_int "cell_total sums groups" 1
    (Obs.Counters.cell_total c ~addr:1 Obs.Counters.Rmr);
  (* pid plane is exact *)
  check_int "pid 0 rmr" 2 (Obs.Counters.pid_count c ~pid:0 Obs.Counters.Rmr);
  check_int "pid 2 local" 1
    (Obs.Counters.pid_count c ~pid:2 Obs.Counters.Local);
  check_int "pid 1 untouched" 0
    (Obs.Counters.pid_count c ~pid:1 Obs.Counters.Rmr);
  (* pc plane clamps deep steps into the last slot *)
  check_int "pc 9 clamped to slot 3" 1
    (Obs.Counters.pc_count c ~group:1 ~pc:3 Obs.Counters.Local);
  (* messages accumulate per (group, cell) *)
  check_int "group 0 messages at 0" 3
    (Obs.Counters.messages_at c ~group:0 ~addr:0);
  check_int "group 1 messages at 0" 2
    (Obs.Counters.messages_at c ~group:1 ~addr:0);
  check_int "messages_total_at sums groups" 5
    (Obs.Counters.messages_total_at c ~addr:0);
  check_int "total rmr" 3 (Obs.Counters.total c Obs.Counters.Rmr);
  check_int "total messages" 5 (Obs.Counters.total_messages c);
  Obs.Counters.reset c;
  check_int "reset zeroes planes" 0 (Obs.Counters.total c Obs.Counters.Rmr);
  check_int "reset zeroes messages" 0 (Obs.Counters.total_messages c);
  check_int "reset keeps group assignments" 1
    (Obs.Counters.group_of c ~pid:2);
  Alcotest.check_raises "out-of-range group rejected"
    (Invalid_argument "Counters.set_group: group out of range") (fun () ->
      Obs.Counters.set_group c ~pid:0 ~group:5)

let test_counters_fold_into_metrics () =
  let c = Obs.Counters.create ~n:2 ~size:1 () in
  Obs.Counters.bump c ~pid:0 ~addr:0 ~pc:0 Obs.Counters.Rmr;
  Obs.Counters.bump c ~pid:1 ~addr:0 ~pc:0 Obs.Counters.Local;
  Obs.Counters.bump c ~pid:1 ~addr:0 ~pc:1 Obs.Counters.Fetch;
  Obs.Counters.bump c ~pid:1 ~addr:0 ~pc:2 Obs.Counters.Crash;
  Obs.Counters.bump_messages c ~pid:1 ~addr:0 4;
  let m = Obs.Metrics.create () in
  Obs.Counters.fold_into_metrics ~model:"cc-wt" c m;
  check_int "rmr_total folded" 1 (int_of_float (Obs.Metrics.total m "rmr_total"));
  check_int "steps_total folds rmr+local" 2
    (int_of_float (Obs.Metrics.total m "steps_total"));
  check_int "cache_events_total folded" 1
    (int_of_float (Obs.Metrics.total m "cache_events_total"));
  check_int "coherence_messages_total folded" 4
    (int_of_float (Obs.Metrics.total m "coherence_messages_total"));
  check_int "crashes_total folded" 1
    (int_of_float (Obs.Metrics.total m "crashes_total"));
  (* Zero planes fold to no rows at all. *)
  Obs.Counters.reset c;
  let m0 = Obs.Metrics.create () in
  Obs.Counters.fold_into_metrics c m0;
  check_int "empty planes emit nothing" 0 (List.length (Obs.Metrics.rows m0))

(* --- the profiler over a small open-system scenario --- *)

let scenario ~algorithm ~model ~waiters ~seed =
  let m = Option.get (Core.Experiment.find_algorithm algorithm) in
  Core.Loadgen.scenario ~algorithm:m ~model
    { Workload.Driver.default_spec with seed; waiters; signals = 4 }

let render sc r =
  Core.Results.to_json_many (Core.Profile.tables ~top:5 sc r)

let test_profile_deterministic () =
  let sc = scenario ~algorithm:"cc-flag" ~model:`Cc_wt ~waiters:40 ~seed:5 in
  let r1 = Core.Profile.run ~record_cells:100 sc in
  let r2 = Core.Profile.run ~record_cells:100 sc in
  Alcotest.(check string) "tables byte-identical across runs"
    (render sc r1) (render sc r2);
  Alcotest.(check string) "chrome export byte-identical across runs"
    (Core.Profile.chrome_trace r1)
    (Core.Profile.chrome_trace r2);
  (* And the planes agree with the driver's own accounting. *)
  check_int "counter rmr total = report total"
    r1.Core.Profile.p_report.Workload.Driver.r_total_rmrs
    (Obs.Counters.total r1.Core.Profile.p_counters Obs.Counters.Rmr);
  check_int "counter message total = report total"
    r1.Core.Profile.p_report.Workload.Driver.r_total_messages
    (Obs.Counters.total_messages r1.Core.Profile.p_counters)

let test_profile_shows_separation () =
  (* cc-flag: the signaler's RMRs concentrate on one cell; the top hot
     cell carries >= 99% of them, and no other cell carries any RMR at
     all.  dsm-broadcast: they smear across the waiters' home cells, so
     no cell can hold 99% of the signaler's spend.  The first is CI's jq
     gate on `separation profile`, from the library side. *)
  let share algorithm model =
    let sc = scenario ~algorithm ~model ~waiters:40 ~seed:1 in
    let r = Core.Profile.run sc in
    let c = r.Core.Profile.p_counters in
    let sig_rmrs addr =
      Obs.Counters.cell_count c ~group:Core.Profile.signaler_group ~addr
        Obs.Counters.Rmr
    in
    let total = Obs.Counters.pid_count c ~pid:0 Obs.Counters.Rmr in
    let best = ref 0 and hot = ref 0 in
    for a = 0 to Obs.Counters.size c - 1 do
      if sig_rmrs a > !best then best := sig_rmrs a;
      if Obs.Counters.cell_total c ~addr:a Obs.Counters.Rmr > 0 then incr hot
    done;
    (!best, total, !hot)
  in
  let best_cc, total_cc, hot_cc = share "cc-flag" `Cc_wt in
  check_true "cc-flag signaler spend is nonzero" (total_cc > 0);
  check_true "cc-flag: one cell holds >= 99% of signaler RMRs"
    (100 * best_cc >= 99 * total_cc);
  check_int "cc-flag: exactly one cell carries any RMR" 1 hot_cc;
  let best_dsm, total_dsm, _ = share "dsm-broadcast" `Dsm in
  check_true "dsm-broadcast signaler spend is nonzero" (total_dsm > 0);
  check_true "dsm-broadcast: the signaler's spend smears across cells"
    (100 * best_dsm < 50 * total_dsm)

let test_profile_cell_recording_cap () =
  let sc = scenario ~algorithm:"cc-flag" ~model:`Cc_wt ~waiters:30 ~seed:2 in
  let full = Core.Profile.run ~record_cells:max_int sc in
  let events = List.length full.Core.Profile.p_cells in
  check_true "a cc run produces coherence transactions" (events > 5);
  check_int "no drops under an unbounded cap" 0
    full.Core.Profile.p_cells_dropped;
  let capped = Core.Profile.run ~record_cells:5 sc in
  check_int "cap bounds the recording" 5
    (List.length capped.Core.Profile.p_cells);
  check_int "overflow is counted, not lost silently" (events - 5)
    capped.Core.Profile.p_cells_dropped;
  check_true "capped prefix is the stream prefix"
    (capped.Core.Profile.p_cells
    = List.filteri (fun i _ -> i < 5) full.Core.Profile.p_cells)

(* --- coverage signatures --- *)

let test_coverage_bucket () =
  List.iter
    (fun (v, b) -> check_int (Printf.sprintf "bucket %d" v) b (Fuzz.Coverage.bucket v))
    [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10);
      (1024, 11) ]

let test_coverage_signature_deterministic () =
  Core.Lint_catalog.register ();
  let algorithms =
    List.map
      (fun (module A : Core.Signaling.POLLING) -> A.name)
      Core.Experiment.polling_algorithms
  in
  let profile =
    { Fuzz.Gen.p_families = [ `Programs; `Script; `Entry ];
      p_algorithms = algorithms;
      p_entries = [] }
  in
  let distinct = Hashtbl.create 16 in
  for index = 0 to 39 do
    let case = Fuzz.Gen.gen ~profile ~seed:3 ~index in
    let s1 = Fuzz.Coverage.signature case in
    let s2 = Fuzz.Coverage.signature case in
    Alcotest.(check string)
      (Printf.sprintf "case %d signature stable" index)
      s1 s2;
    check_true "signature is non-empty" (String.length s1 > 0);
    (* Shape: "quiet" or space-separated class:..c/b.. and msg:b.. parts. *)
    if s1 <> "quiet" then
      List.iter
        (fun part ->
          check_true
            (Printf.sprintf "part %S has a class prefix" part)
            (String.contains part ':'))
        (String.split_on_char ' ' s1);
    Hashtbl.replace distinct s1 ()
  done;
  check_true "the stream covers more than one bucket"
    (Hashtbl.length distinct > 1)

let suite =
  [ case "counter planes: bump, clamp, group, reset" test_counters_planes;
    case "counters fold into the tracing metrics rows"
      test_counters_fold_into_metrics;
    case "profile tables and chrome export are deterministic"
      test_profile_deterministic;
    case "hot-cell attribution separates cc-flag from dsm-broadcast"
      test_profile_shows_separation;
    case "cell recording cap counts its overflow"
      test_profile_cell_recording_cap;
    case "coverage buckets are binary orders of magnitude"
      test_coverage_bucket;
    case "coverage signatures deterministic and well-formed"
      test_coverage_signature_deterministic ]
