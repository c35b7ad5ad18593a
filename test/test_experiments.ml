(* Smoke and shape tests for the experiment drivers: every table builds,
   and the headline shapes match the paper's claims. *)

open Test_util
open Core

let test_e1_flat () =
  let t = Experiment.e1 ~ns:[ 2; 64 ] () in
  ignore (Report.to_string t);
  (* Shape is asserted directly against the scenario here. *)
  let per n =
    let cfg = Experiment.config_for (module Cc_flag) ~n in
    (Scenario.run_phased (module Cc_flag) ~model:`Cc_wt ~cfg ())
      .Scenario.max_waiter_rmrs
  in
  check_int "waiter cost independent of N" (per 2) (per 128)

let test_e2_separation () =
  ignore (Report.to_string (Experiment.e2 ~ns:[ 8; 16 ] ()));
  let am n = (Adversary.run (module Dsm_broadcast) ~n ()).Adversary.amortized in
  let aq n = (Adversary.run (module Dsm_queue) ~n ()).Adversary.amortized in
  check_true "read/write amortized grows" (am 32 > am 8 +. 10.);
  check_true "F&I amortized flat" (Float.abs (aq 32 -. aq 8) < 2.)

let test_e3_builds () =
  match Experiment.e3 ~n:16 ~partial:4 () with
  | [ full; partial ] ->
    check_true "full table renders" (String.length (Report.to_string full) > 0);
    check_true "partial table renders"
      (String.length (Report.to_string partial) > 0)
  | _ -> Alcotest.fail "expected two tables"

let test_e4_flat () =
  ignore (Report.to_string (Experiment.e4 ~n:32 ~ks:[ 1; 8; 31 ] ()))

let test_e5_builds () =
  ignore (Report.to_string (Experiment.e5 ~n:16 ()))

let test_e6_exchange_rate () =
  ignore (Report.to_string (Experiment.e6 ~ns:[ 8 ] ()));
  (* Directory messages exceed bus messages for the same run. *)
  let messages ic =
    let cfg = Experiment.config_for (module Cc_flag) ~n:32 in
    (Scenario.run_phased (module Cc_flag)
       ~model:(`Cc (Smr.Cc.Write_through, ic))
       ~cfg ())
      .Scenario.total_messages
  in
  check_true "directory sends more messages than bus"
    (messages Smr.Cc.Directory_precise > messages Smr.Cc.Bus)

let test_e7_builds () =
  ignore (Report.to_string (Experiment.e7 ~ns:[ 2; 4 ] ~entries:2 ()))

let test_e8_contention_shape () =
  (match Experiment.e8 ~n:64 ~ks:[ 2; 16 ] () with
  | [ a; b ] ->
    ignore (Report.to_string a);
    ignore (Report.to_string b)
  | _ -> Alcotest.fail "expected two tables");
  let cas k = Experiment.contention_total (module Cas_register) ~n:64 ~k in
  let fai k = Experiment.contention_total (module Dsm_queue) ~n:64 ~k in
  (* CAS cost superlinear: per-waiter cost grows; F&I per-waiter flat. *)
  check_true "cas per-waiter grows"
    (float_of_int (cas 32) /. 32. > 2. *. (float_of_int (cas 4) /. 4.));
  check_int "fai per-waiter flat" (fai 4 / 4) (fai 32 / 32)

let test_e9_builds () =
  ignore (Report.to_string (Experiment.e9 ~n:16 ()))

let test_find_algorithm () =
  check_true "lookup by name"
    (match Experiment.find_algorithm "dsm-queue" with
    | Some (module A : Signaling.POLLING) -> A.name = "dsm-queue"
    | None -> false);
  check_true "unknown name" (Experiment.find_algorithm "nope" = None)

let test_e1_golden () =
  (* The experiment tables are fully deterministic: pin E1's text at small
     sizes as a regression net over the whole stack (layout, scheduler,
     cost model, accounting, rendering). *)
  let got = Report.to_string (Experiment.e1 ~ns:[ 2; 4 ] ()) in
  let expected =
    "E1 (Sec. 5): cc-flag under CC write-through — per-process RMRs must \
     stay O(1) as N grows\n\
    \  N  waiter max  signaler  total  amortized  violations\n\
    \  -  ----------  --------  -----  ---------  ----------\n\
    \  2  2           1         3      1.50       0         \n\
    \  4  2           1         7      1.75       0         \n"
  in
  Alcotest.(check string) "golden E1" expected got

let test_e2_golden_numbers () =
  (* Pin the headline numbers at one size. *)
  let r = Adversary.run (module Dsm_broadcast) ~n:16 () in
  check_int "signaler RMRs" 15
    (match r.Adversary.chase with Some c -> c.Adversary.signaler_rmrs | None -> -1);
  check_int "participants" 1 r.Adversary.participants;
  check_int "total" 15 r.Adversary.total_rmrs;
  let q = Adversary.run (module Dsm_queue) ~n:16 () in
  check_int "queue participants" 16 q.Adversary.participants;
  check_int "queue blocked erasures" 14
    (match q.Adversary.chase with
    | Some c -> c.Adversary.chase_erase_failures
    | None -> -1)

(* --- registry, runner, and golden JSON --- *)

let test_registry () =
  let ids = Experiment_registry.ids () in
  check_int "15 experiments registered" 15 (List.length ids);
  check_true "ids unique" (List.sort_uniq compare ids = List.sort compare ids);
  check_true "find by id"
    (match Experiment_registry.find "e5" with
    | Some s -> s.Experiment_def.id = "e5"
    | None -> false);
  check_true "find unknown" (Experiment_registry.find "e99" = None);
  check_true "find_exn unknown raises with the valid ids"
    (match Experiment_registry.find_exn "e99" with
    | exception Invalid_argument msg ->
      List.for_all
        (fun id ->
          let n = String.length id and h = String.length msg in
          let rec go i =
            i + n <= h && (String.sub msg i n = id || go (i + 1))
          in
          go 0)
        ids
    | _ -> false)

let test_runner_shapes () =
  (* Default-size runs carry their shape verdict; Reduced runs skip it
     (the reduced parameter sets are too small for growth checks). *)
  let e1 = Experiment_registry.find_exn "e1" in
  (match Runner.run ~jobs:1 ~size:Experiment_def.Default [ e1 ] with
  | [ o ] ->
    check_true "e1 default shape ok" (o.Runner.shape = Some (Ok ()));
    check_true "tables tagged e1"
      (List.for_all (fun t -> t.Results.experiment = "e1") o.Runner.tables)
  | _ -> Alcotest.fail "expected one outcome");
  match Runner.run ~jobs:1 ~size:Experiment_def.Reduced [ e1 ] with
  | [ o ] -> check_true "reduced skips shape" (o.Runner.shape = None)
  | _ -> Alcotest.fail "expected one outcome"

let test_jobs_deterministic () =
  (* The --jobs guarantee: parallel and sequential runs are byte-identical.
     The whole reduced suite through the runner, JSON-rendered, at 1 vs 2
     domains. *)
  let render jobs =
    Results.to_json_many
      (Runner.tables
         (Runner.run ~jobs ~size:Experiment_def.Reduced
            (Experiment_registry.all ())))
  in
  Alcotest.(check string) "jobs=2 byte-identical to jobs=1" (render 1)
    (render 2)

let test_e1_golden_json () =
  (* Byte-for-byte pin of the stable JSON format on a tiny deterministic
     table; regenerate with `dune exec test/golden/gen.exe`. *)
  Alcotest.(check string)
    "golden JSON e1"
    (read_file "golden/e1_small.json")
    (Results.to_json (E1_cc_flag.table ~ns:[ 2; 4 ] ()) ^ "\n")

let test_e2_golden_json () =
  (* Both erasure paths of the Section 6 adversary: dsm-broadcast's chase
     erases every waiter, dsm-queue's is blocked by F&I visibility. *)
  Alcotest.(check string)
    "golden JSON e2"
    (read_file "golden/e2_small.json")
    (Results.to_json (E2_adversary.table ~ns:[ 8; 32 ] ()) ^ "\n")

let test_e4_golden_json () =
  Alcotest.(check string)
    "golden JSON e4"
    (read_file "golden/e4_small.json")
    (Results.to_json (E4_queue_k.table ~n:16 ~ks:[ 1; 2; 4 ] ()) ^ "\n")

let test_cc_tables_golden_json () =
  (* E5, E6 and E12 bill algorithms under every CC protocol, interconnect
     and cache capacity; pinned byte for byte against `separation tables
     --json e5 e6 e12`. *)
  Alcotest.(check string)
    "golden JSON e5 e6 e12"
    (read_file "golden/cc_tables.json")
    (Results.to_json_many
       (Runner.tables
          (Runner.run ~jobs:1
             (List.map Experiment_registry.find_exn [ "e5"; "e6"; "e12" ]))))

let test_report_csv () =
  let t =
    Report.make ~title:"t" ~header:[ "a"; "b" ]
      [ [ "1"; "x,y" ]; [ "2"; "say \"hi\"" ] ]
  in
  let csv = Report.to_csv t in
  check_true "header line" (String.length csv > 0);
  check_true "separator quoting"
    (csv = "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n")

let test_report_rendering () =
  let t =
    Report.make ~title:"t" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; Report.float 1.5 ] ]
  in
  let s = Report.to_string t in
  check_true "title present" (String.length s > 0);
  (* Columns are aligned: every data line has the same prefix width. *)
  let lines = String.split_on_char '\n' s in
  check_true "several lines" (List.length lines >= 4)

let suite =
  [ case "E1 is flat in N" test_e1_flat;
    case "E2 exhibits the separation" test_e2_separation;
    case "E3 tables build" test_e3_builds;
    case "E4 builds" test_e4_flat;
    case "E5 builds" test_e5_builds;
    case "E6 exchange rate" test_e6_exchange_rate;
    case "E7 builds" test_e7_builds;
    case "E8 contention shapes" test_e8_contention_shape;
    case "E9 builds" test_e9_builds;
    case "algorithm registry lookup" test_find_algorithm;
    case "experiment registry" test_registry;
    case "runner shape verdicts" test_runner_shapes;
    case "runner jobs determinism" test_jobs_deterministic;
    case "E1 golden JSON" test_e1_golden_json;
    case "E2 golden JSON" test_e2_golden_json;
    case "E4 golden JSON" test_e4_golden_json;
    case "E5, E6, E12 golden JSON" test_cc_tables_golden_json;
    case "E1 golden output" test_e1_golden;
    case "E2 golden numbers" test_e2_golden_numbers;
    case "report csv" test_report_csv;
    case "report rendering" test_report_rendering ]
