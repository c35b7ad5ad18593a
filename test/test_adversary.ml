(* Tests for the mechanized Section 6 adversary. *)

open Test_util
open Core

let test_broadcast_forced_linear () =
  let n = 32 in
  let r = Adversary.run (module Dsm_broadcast) ~n () in
  check_int "every waiter stabilizes" n r.Adversary.stable_waiters;
  check_true "part 1 history regular" r.Adversary.part1_regular;
  (match r.Adversary.chase with
  | Some c ->
    check_int "signaler forced to N-1 RMRs" (n - 1) c.Adversary.signaler_rmrs;
    check_int "every waiter erased" (n - 1) c.Adversary.chase_erased;
    check_int "no erasure blocked" 0 c.Adversary.chase_erase_failures
  | None -> Alcotest.fail "chase did not run");
  check_int "final history has one participant" 1 r.Adversary.participants;
  check_true "amortized cost is N-1"
    (r.Adversary.amortized >= float_of_int (n - 1) -. 0.01);
  check_false "algorithm is correct (no spec violation)" r.Adversary.spec_violated;
  check_false "no spurious true" r.Adversary.spurious_true

let test_broadcast_amortized_grows () =
  let am n = (Adversary.run (module Dsm_broadcast) ~n ()).Adversary.amortized in
  check_true "amortized scales with N" (am 64 > 3. *. am 16 -. 1.)

let test_queue_resists () =
  let n = 32 in
  let r = Adversary.run (module Dsm_queue) ~n () in
  (match r.Adversary.chase with
  | Some c ->
    check_true "erasures blocked by F&I visibility"
      (c.Adversary.chase_erase_failures > 0);
    check_int "no waiter erased during chase" 0 c.Adversary.chase_erased
  | None -> Alcotest.fail "chase did not run");
  check_true "participants stay Θ(N)" (r.Adversary.participants >= n - 1);
  check_true "amortized stays O(1)" (r.Adversary.amortized <= 8.);
  check_false "F&I chains make part 1 irregular" r.Adversary.part1_regular;
  check_false "no spec violation" r.Adversary.spec_violated

let test_queue_amortized_flat () =
  let am n = (Adversary.run (module Dsm_queue) ~n ()).Adversary.amortized in
  check_true "flat in N" (Float.abs (am 64 -. am 16) < 2.)

let test_fixed_signaler_rejected () =
  check_true "signaler-fixed algorithms are out of scope"
    (match Adversary.run (module Dsm_registration) ~n:8 () with
    | (_ : Adversary.result) -> false
    | exception Invalid_argument _ -> true)

let test_cc_flag_never_stabilizes_in_dsm () =
  (* Under DSM accounting, polling the shared Boolean is an RMR every time,
     so no waiter ever stabilizes; part 1 exhausts its round budget. *)
  let r = Adversary.run (module Cc_flag) ~n:8 ~max_rounds:6 () in
  check_true "no chase" (r.Adversary.chase = None);
  check_int "nobody stable" 0 r.Adversary.stable_waiters;
  check_int "rounds exhausted" 6 (List.length r.Adversary.rounds)

let test_rounds_respect_si_invariant () =
  (* Property 3 of Def. 6.9 on a CAS-based algorithm whose construction
     churns for many rounds. *)
  let r = Adversary.run (module Cas_register) ~n:24 ~max_rounds:12 () in
  List.iter
    (fun (s : Adversary.round_stat) ->
      check_true
        (Printf.sprintf "round %d: max active RMRs %d <= %d" s.Adversary.round
           s.Adversary.max_active_rmrs (s.Adversary.round + 1))
        (s.Adversary.max_active_rmrs <= s.Adversary.round + 1))
    r.Adversary.rounds

let test_broadcast_stabilizes_immediately () =
  let r = Adversary.run (module Dsm_broadcast) ~n:16 () in
  check_int "zero construction rounds needed" 0 (List.length r.Adversary.rounds);
  check_int "nobody rolled forward" 0 r.Adversary.finished

let test_transformed_cas_register_chased () =
  (* The Cor. 6.14 reduction output is reads/writes only, so the adversary
     applies; the construction at least runs and the result is coherent.
     (The lock structure means part 1 may churn; we only require sanity.) *)
  let r = Adversary.run (module Cas_register.Transformed) ~n:12 ~max_rounds:16 () in
  check_true "no spurious true" (not r.Adversary.spurious_true);
  check_false "no spec violation" r.Adversary.spec_violated;
  check_true "rounds recorded" (List.length r.Adversary.rounds >= 1)

let test_adversary_deterministic () =
  let r1 = Adversary.run (module Dsm_broadcast) ~n:16 () in
  let r2 = Adversary.run (module Dsm_broadcast) ~n:16 () in
  check_true "same totals"
    (r1.Adversary.total_rmrs = r2.Adversary.total_rmrs
    && r1.Adversary.participants = r2.Adversary.participants)

let test_broadcast_chase_linear () =
  (* Every waiter dsm-broadcast's chase erases was declared stable before
     it began a call, so each erasure has nothing to replay: the run's
     allocation per step of the final history stays flat in n (about 1.1k
     words).  Replaying the trace on each erasure made it quadratic:
     29.2k words per step at n = 256. *)
  let n = 256 in
  let w0 = Gc.minor_words () in
  let r = Adversary.run (module Dsm_broadcast) ~n () in
  let words = Gc.minor_words () -. w0 in
  let steps = List.length (Smr.Sim.steps r.Adversary.final_sim) in
  check_int "the signaler's steps survive" n steps;
  check_true
    (Printf.sprintf "%.1f minor words per final-history step <= 2000"
       (words /. float_of_int steps))
    (words /. float_of_int steps <= 2000.)

let prop_adversary_never_breaks_spec =
  (* Whatever the adversary does, it must never manufacture a spec
     violation against a correct algorithm. *)
  qcheck ~count:12 "adversary never frames a correct algorithm"
    (QCheck.int_range 4 40)
    (fun n ->
      let r1 = Adversary.run (module Dsm_broadcast) ~n () in
      let r2 = Adversary.run (module Dsm_queue) ~n () in
      (not r1.Adversary.spec_violated)
      && (not r2.Adversary.spec_violated)
      && (not r1.Adversary.spurious_true)
      && not r2.Adversary.spurious_true)

let suite =
  [ case "broadcast: forced to N-1 RMRs, 1 participant" test_broadcast_forced_linear;
    case "broadcast: amortized grows with N" test_broadcast_amortized_grows;
    case "queue: erasures blocked, amortized flat" test_queue_resists;
    case "queue: amortized flat across N" test_queue_amortized_flat;
    case "fixed-signaler algorithms rejected" test_fixed_signaler_rejected;
    case "cc-flag never stabilizes under DSM" test_cc_flag_never_stabilizes_in_dsm;
    case "rounds respect the S(i) RMR bound" test_rounds_respect_si_invariant;
    case "broadcast stabilizes in zero rounds" test_broadcast_stabilizes_immediately;
    case "transformed cas-register is chaseable" test_transformed_cas_register_chased;
    case "adversary is deterministic" test_adversary_deterministic;
    case "broadcast: chase allocation linear in n" test_broadcast_chase_linear;
    prop_adversary_never_breaks_spec ]
