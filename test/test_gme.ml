(* Tests for group mutual exclusion: the checker itself, safety of both
   algorithms under many schedules, and the concurrency that separates a
   real GME algorithm from the mutex reduction. *)

open Smr
open Test_util

let algorithms : (module Sync.Gme_intf.GME) list =
  [ (module Sync.Gme_mutex);
    (module Sync.Gme_session_lock);
    (module Sync.Gme_lightswitch.As_gme) ]

let dsm layout = Cost_model.dsm layout

let cc _layout = Cc.model ~n:0 ()

let run (module G : Sync.Gme_intf.GME) ~n ~entries ?sessions ?session_of ~policy () =
  Sync.Gme_runner.run (module G) ~model_of:dsm ~n ~entries ?sessions ?session_of
    ~policy ()

(* --- checker unit tests on synthetic call lists --- *)

let mk_call ~pid ~label ~started ?finished () =
  { History.c_pid = pid;
    c_label = label;
    c_seq = 0;
    c_started = started;
    c_finished = finished;
    c_result = Some 0;
    c_rmrs = 0;
    c_steps = 0 }

let enter ~pid ~session ~started ~finished =
  mk_call ~pid ~label:(Sync.Gme_intf.enter_label ~session) ~started ~finished ()

let exits ~pid ~started ~finished =
  mk_call ~pid ~label:Sync.Gme_intf.exit_label ~started ~finished ()

let test_checker_disjoint_ok () =
  let calls =
    [ enter ~pid:0 ~session:0 ~started:0 ~finished:1;
      exits ~pid:0 ~started:2 ~finished:3;
      enter ~pid:1 ~session:1 ~started:4 ~finished:5;
      exits ~pid:1 ~started:6 ~finished:7 ]
  in
  check_true "sequential different sessions fine" (Sync.Gme_intf.is_safe calls);
  check_int "no overlap" 1 (Sync.Gme_intf.max_concurrency calls)

let test_checker_same_session_overlap_ok () =
  let calls =
    [ enter ~pid:0 ~session:3 ~started:0 ~finished:1;
      enter ~pid:1 ~session:3 ~started:0 ~finished:2;
      exits ~pid:0 ~started:5 ~finished:6;
      exits ~pid:1 ~started:7 ~finished:8 ]
  in
  check_true "same-session overlap allowed" (Sync.Gme_intf.is_safe calls);
  check_int "concurrency two" 2 (Sync.Gme_intf.max_concurrency calls)

let test_checker_cross_session_overlap_flagged () =
  let calls =
    [ enter ~pid:0 ~session:0 ~started:0 ~finished:1;
      enter ~pid:1 ~session:1 ~started:0 ~finished:2;
      exits ~pid:0 ~started:5 ~finished:6;
      exits ~pid:1 ~started:7 ~finished:8 ]
  in
  check_false "cross-session overlap flagged" (Sync.Gme_intf.is_safe calls)

let test_checker_unfinished_occupancy () =
  (* A process that never exits occupies forever. *)
  let calls =
    [ enter ~pid:0 ~session:0 ~started:0 ~finished:1;
      enter ~pid:1 ~session:1 ~started:10 ~finished:11;
      exits ~pid:1 ~started:12 ~finished:13 ]
  in
  check_false "open-ended occupancy conflicts" (Sync.Gme_intf.is_safe calls)

let test_session_label_round_trip () =
  check_true "label parse"
    (Sync.Gme_intf.session_of_label (Sync.Gme_intf.enter_label ~session:7) = Some 7);
  check_true "exit not an enter" (Sync.Gme_intf.session_of_label "exit" = None)

(* --- algorithm safety --- *)

let safety_cases =
  List.concat_map
    (fun (module G : Sync.Gme_intf.GME) ->
      List.map
        (fun (pname, policy) ->
          case (Printf.sprintf "%s: safe under %s" G.name pname) (fun () ->
              let o = run (module G) ~n:6 ~entries:3 ~policy () in
              check_true "no cross-session overlap" o.Sync.Gme_runner.safe;
              check_int "all passages done" 18 o.Sync.Gme_runner.passages))
        [ ("round-robin", Schedule.Round_robin);
          ("random 5", Schedule.Random_seed 5);
          ("random 77", Schedule.Random_seed 77) ])
    algorithms

let prop_gme_safety =
  List.map
    (fun (module G : Sync.Gme_intf.GME) ->
      qcheck ~count:40
        (Printf.sprintf "%s: safe under random schedules and sessions" G.name)
        QCheck.(triple (int_range 2 8) (int_range 2 4) (int_bound 10_000))
        (fun (n, sessions, seed) ->
          let o =
            run (module G) ~n ~entries:2 ~sessions
              ~policy:(Schedule.Random_seed seed) ()
          in
          o.Sync.Gme_runner.safe))
    algorithms

(* --- concurrency: the point of GME --- *)

let test_session_lock_admits_concurrency () =
  (* Everyone requests the same session: a real GME algorithm lets them
     all in together. *)
  let o =
    run (module Sync.Gme_session_lock) ~n:8 ~entries:2
      ~session_of:(fun _ _ -> 0) ~policy:Schedule.Round_robin ()
  in
  check_true "safe" o.Sync.Gme_runner.safe;
  check_true
    (Printf.sprintf "concurrency %d > 1" o.Sync.Gme_runner.max_concurrency)
    (o.Sync.Gme_runner.max_concurrency > 1)

let test_mutex_baseline_no_concurrency () =
  let o =
    run (module Sync.Gme_mutex) ~n:8 ~entries:2 ~session_of:(fun _ _ -> 0)
      ~policy:Schedule.Round_robin ()
  in
  check_true "safe" o.Sync.Gme_runner.safe;
  check_int "never more than one inside" 1 o.Sync.Gme_runner.max_concurrency

let test_parked_waiters_admitted_together () =
  (* Two sessions alternating: when session 0 closes, all parked session-1
     waiters must enter together. *)
  let o =
    run (module Sync.Gme_session_lock) ~n:6 ~entries:3 ~sessions:2
      ~policy:(Schedule.Random_seed 11) ()
  in
  check_true "safe" o.Sync.Gme_runner.safe;
  check_true "some concurrency achieved" (o.Sync.Gme_runner.max_concurrency >= 2)

let test_lightswitch_team_rides_along () =
  (* Once the first team member holds the main lock, later same-session
     entries cost only the team mutex: concurrency reaches the team size. *)
  let o =
    run (module Sync.Gme_lightswitch.As_gme) ~n:8 ~entries:2
      ~session_of:(fun _ _ -> 0) ~policy:Schedule.Round_robin ()
  in
  check_true "safe" o.Sync.Gme_runner.safe;
  check_true
    (Printf.sprintf "team concurrency %d >= 4" o.Sync.Gme_runner.max_concurrency)
    (o.Sync.Gme_runner.max_concurrency >= 4)

let test_lightswitch_exhaustive_small () =
  (* All interleavings of two processes in different sessions. *)
  let ctx = Var.Ctx.create () in
  let module L = Sync.Gme_lightswitch.As_gme in
  let g = L.create ctx ~n:2 ~sessions:2 in
  let layout = Var.Ctx.freeze ctx in
  let script p =
    Explore.of_list
      [ ( Sync.Gme_intf.enter_label ~session:p,
          Program.map (fun () -> 0) (L.enter g p ~session:p) );
        ( Sync.Gme_intf.exit_label,
          Program.map (fun () -> 0) (L.exit g p) ) ]
  in
  let r =
    Explore.check ~max_histories:300_000 ~layout
      ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ~property:Sync.Gme_intf.is_safe
      ()
  in
  check_true "no cross-session overlap in any interleaving"
    (r.Explore.violation = None)

let test_checker_catches_broken_gme () =
  (* A "GME" whose enter/exit do nothing: different sessions overlap and
     the checker must say so — validates the harness itself. *)
  let module Broken = struct
    let name = "broken-gme"
    let primitives = [ Smr.Op.Reads_writes ]

    type t = unit

    let create _ ~n:_ ~sessions:_ = ()
    let enter () _ ~session:_ = Smr.Program.return ()
    let exit () _ = Smr.Program.return ()
  end in
  let o =
    run (module Broken) ~n:6 ~entries:2 ~policy:(Schedule.Random_seed 3) ()
  in
  check_false "overlap detected" o.Sync.Gme_runner.safe

let test_local_spin_parking () =
  (* A parked waiter spins on its own module: its RMRs while waiting are
     bounded (the park itself costs the lock passage + O(1)). *)
  let o =
    run (module Sync.Gme_session_lock) ~n:4 ~entries:2 ~sessions:2
      ~policy:Schedule.Round_robin ()
  in
  check_true "per-passage cost bounded"
    (o.Sync.Gme_runner.avg_rmrs_per_passage < 40.)

let test_gme_exhaustive_small () =
  (* Every interleaving of two processes entering different sessions: the
     session lock never lets their occupancies overlap.  Lock spins make
     some branches truncate; the safety property is checked on all. *)
  let ctx = Var.Ctx.create () in
  let g = Sync.Gme_session_lock.create ctx ~n:2 ~sessions:2 in
  let layout = Var.Ctx.freeze ctx in
  let script p =
    Explore.of_list
      [ ( Sync.Gme_intf.enter_label ~session:p,
          Program.map (fun () -> 0) (Sync.Gme_session_lock.enter g p ~session:p) );
        ( Sync.Gme_intf.exit_label,
          Program.map (fun () -> 0) (Sync.Gme_session_lock.exit g p) ) ]
  in
  (* Bounded search: the lock spin's response sequences make the reduced
     space unbounded too, so the cap governs runtime; 2k reduced histories
     visit tens of thousands of distinct states. *)
  let r =
    Explore.check ~max_histories:2_000 ~layout
      ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ~property:Sync.Gme_intf.is_safe
      ()
  in
  check_true "explored" (r.Explore.histories > 100);
  check_true "no cross-session overlap in any interleaving"
    (r.Explore.violation = None)

let suite =
  [ case "gme-session: exhaustive small-scope safety" test_gme_exhaustive_small;
    case "checker: disjoint occupancies" test_checker_disjoint_ok;
    case "checker: same-session overlap ok" test_checker_same_session_overlap_ok;
    case "checker: cross-session overlap flagged"
      test_checker_cross_session_overlap_flagged;
    case "checker: unfinished occupancy" test_checker_unfinished_occupancy;
    case "session label round trip" test_session_label_round_trip;
    case "session lock admits concurrency" test_session_lock_admits_concurrency;
    case "mutex baseline: concurrency 1" test_mutex_baseline_no_concurrency;
    case "parked waiters admitted together" test_parked_waiters_admitted_together;
    case "lightswitch: team rides along" test_lightswitch_team_rides_along;
    case "lightswitch: exhaustive small-scope safety" test_lightswitch_exhaustive_small;
    case "checker catches a broken GME" test_checker_catches_broken_gme;
    case "parking is local-spin" test_local_spin_parking ]
  @ safety_cases
  @ prop_gme_safety
