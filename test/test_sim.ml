(* Tests for the simulator: call lifecycle, peeking, accounting, and — most
   importantly — replay-based erasure (Lemma 6.7). *)

open Smr
open Program.Syntax
open Test_util

let alloc_pair ctx =
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let y = Var.Ctx.int ctx ~name:"y" ~home:(Var.Module 1) 3 in
  (x, y)

let test_call_lifecycle () =
  let sim, _, (x, _) = solo_machine alloc_pair in
  check_true "initially idle" (Sim.is_idle sim 0);
  let prog =
    let* v = Program.read x in
    Program.return (v + 100)
  in
  let sim = Sim.begin_call sim 0 ~label:"f" prog in
  check_true "running" (Sim.is_running sim 0);
  check_true "peek shows the read"
    (Sim.peek sim 0 = Some (Op.Read (Var.addr x)));
  let sim = Sim.advance sim 0 in
  check_true "idle after final step" (Sim.is_idle sim 0);
  check_true "result recorded" (Sim.last_result sim 0 = Some 100);
  let calls = Sim.calls_of sim 0 in
  check_int "one call" 1 (List.length calls);
  let c = List.hd calls in
  check_true "label" (c.History.c_label = "f");
  check_int "one step" 1 c.History.c_steps

let test_immediate_return () =
  let sim, _, _ = solo_machine alloc_pair in
  let sim, v = Sim.run_call sim 0 ~label:"nop" (Program.return 7) in
  check_int "value" 7 v;
  check_int "no steps" 0 (List.length (Sim.steps sim));
  check_int "but a call" 1 (List.length (Sim.calls sim))

let test_begin_while_running_rejected () =
  let sim, _, (x, _) = solo_machine alloc_pair in
  let sim = Sim.begin_call sim 0 ~label:"f" (Program.step (Op.Read (Var.addr x))) in
  Alcotest.check_raises "double begin"
    (Invalid_argument "Sim.begin_call: process already in a call") (fun () ->
      ignore (Sim.begin_call sim 0 ~label:"g" (Program.return 0)))

let test_terminate_rules () =
  let sim, _, (x, _) = solo_machine alloc_pair in
  let sim' = Sim.begin_call sim 0 ~label:"f" (Program.step (Op.Read (Var.addr x))) in
  Alcotest.check_raises "terminate mid-call"
    (Invalid_argument "Sim.terminate: process mid-call") (fun () ->
      ignore (Sim.terminate sim' 0));
  let sim = Sim.terminate sim 0 in
  check_true "terminated" (Sim.is_terminated sim 0);
  Alcotest.check_raises "begin after terminate"
    (Invalid_argument "Sim.begin_call: process terminated") (fun () ->
      ignore (Sim.begin_call sim 0 ~label:"f" (Program.return 0)))

let test_clock_orders_calls_and_steps () =
  let sim, _, (x, _) = solo_machine alloc_pair in
  let sim, _ = Sim.run_call sim 0 ~label:"a" (Program.step (Op.Read (Var.addr x))) in
  let sim, _ = Sim.run_call sim 1 ~label:"b" (Program.step (Op.Read (Var.addr x))) in
  match Sim.calls sim with
  | [ a; b ] ->
    check_true "a before b"
      (Option.get a.History.c_finished < b.History.c_started)
  | _ -> Alcotest.fail "expected two calls"

let test_rmr_accounting_incremental () =
  let sim, _, (x, y) = solo_machine alloc_pair in
  let prog =
    let* _ = Program.read x (* shared: RMR *) in
    let* _ = Program.read y (* p1's module, run by p0: RMR *) in
    Program.write y 9 (* RMR *)
  in
  let sim = run_unit sim prog in
  check_int "three RMRs for p0" 3 (Sim.rmrs sim 0);
  check_int "total matches" 3 (Sim.total_rmrs sim);
  check_int "step count" 3 (Sim.step_count sim 0);
  (* Incremental counters agree with recomputation from steps. *)
  let t = History.tally_by_pid (Sim.steps sim) in
  check_int "tally agrees" (History.Pid_map.find 0 t).History.t_rmrs
    (Sim.rmrs sim 0)

let test_next_is_rmr () =
  let sim, _, (_, y) = solo_machine alloc_pair in
  let sim = Sim.begin_call sim 0 ~label:"f" (Program.step (Op.Read (Var.addr y))) in
  check_true "remote read predicted" (Sim.next_is_rmr sim 0 = Some true);
  let sim1 = Sim.begin_call sim 1 ~label:"f" (Program.step (Op.Read (Var.addr y))) in
  check_true "local read predicted" (Sim.next_is_rmr sim1 1 = Some false)

let test_run_to_idle_fuel () =
  let sim, _, (x, _) = solo_machine alloc_pair in
  let spin = Program.map (fun () -> 0) (Program.await x (fun v -> v > 0)) in
  let sim = Sim.begin_call sim 0 ~label:"spin" spin in
  Alcotest.check_raises "fuel exhausted" (Failure "Sim.run_to_idle: out of fuel")
    (fun () -> ignore (Sim.run_to_idle ~fuel:50 sim 0))

(* --- erasure --- *)

let test_erase_invisible () =
  (* p1 writes its own variable; p0 reads an unrelated one.  Erasing p1
     leaves p0's history intact.  p2 never takes a step. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let w = Var.Ctx.int ctx ~name:"w" ~home:(Var.Module 1) 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:3 in
  let sim, _ = Sim.run_call sim 0 ~label:"r" (Program.step (Op.Read (Var.addr x))) in
  let sim, _ = Sim.run_call sim 1 ~label:"w" (Program.step (Op.Write (Var.addr w, 5))) in
  check_true "both participate"
    (Sim.Pid_set.cardinal (Sim.participants sim) = 2);
  let erased = Sim.erase sim [ 1 ] in
  check_true "only p0 remains"
    (Sim.Pid_set.elements (Sim.participants erased) = [ 0 ]);
  check_int "p0's steps survive" 1 (List.length (Sim.steps erased));
  check_int "p1's write is gone" 0 (Memory.get (Sim.memory erased) (Var.addr w));
  (* A stepless victim beside a stepped one changes nothing. *)
  let mixed = Sim.erase sim [ 2; 1 ] in
  check_true "mixed: same steps" (Sim.steps mixed = Sim.steps erased);
  check_true "mixed: same calls" (Sim.calls mixed = Sim.calls erased);
  check_true "mixed: same memory"
    (Memory.dump (Sim.memory mixed) = Memory.dump (Sim.memory erased)
    && Memory.same_fingerprint (Sim.memory mixed) (Sim.memory erased));
  check_int "mixed: same clock" (Sim.clock erased) (Sim.clock mixed)

let test_erase_stepless_is_identity () =
  (* A process that never began a call, crashed or terminated has no event
     to remove: erasing it returns the machine itself, with no replay. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:4 in
  let sim, _ = Sim.run_call sim 0 ~label:"w" (Program.step (Op.Write (Var.addr x, 5))) in
  let sim = Sim.begin_call sim 1 ~label:"r" (Program.step (Op.Read (Var.addr x))) in
  let sim = Sim.terminate sim 2 in
  check_true "stepless victims: the machine itself" (Sim.erase sim [ 3 ] == sim);
  check_true "no victims: the machine itself" (Sim.erase sim [] == sim);
  check_true "a terminated process is replayed out"
    (Sim.erase sim [ 2; 3 ] != sim && Sim.is_idle (Sim.erase sim [ 2 ]) 2);
  check_true "a process mid-call is replayed out"
    (Sim.is_idle (Sim.erase sim [ 3; 1 ]) 1)

let test_erase_visible_diverges () =
  (* p0 reads a value p1 wrote; erasing p1 changes p0's response. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:3 in
  let sim, _ = Sim.run_call sim 1 ~label:"w" (Program.step (Op.Write (Var.addr x, 5))) in
  let sim, v = Sim.run_call sim 0 ~label:"r" (Program.step (Op.Read (Var.addr x))) in
  check_int "p0 saw the write" 5 v;
  check_false "p1 is not erasable" (Sim.can_erase sim [ 1 ]);
  List.iter
    (fun victims ->
      check_true "erase raises"
        (match Sim.erase sim victims with
        | (_ : Sim.t) -> false
        | exception Sim.Replay_divergence { pid = 0; _ } -> true
        | exception Sim.Replay_divergence _ -> false))
    [ [ 1 ]; [ 2; 1 ]; [ 1; 2 ] ]

let test_erase_fai_chain_diverges () =
  (* Two FAIs: the second's response depends on the first — the mechanism
     that defeats the adversary against the queue algorithm. *)
  let ctx = Var.Ctx.create () in
  let c = Var.Ctx.int ctx ~name:"c" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let fai p sim =
    fst (Sim.run_call sim p ~label:"fai" (Program.step (Op.Faa (Var.addr c, 1))))
  in
  let sim = fai 0 sim in
  let sim = fai 1 sim in
  check_false "first FAIer visible to second" (Sim.can_erase sim [ 0 ]);
  check_true "last FAIer invisible" (Sim.can_erase sim [ 1 ])

let test_erase_blind_write_chain_ok () =
  (* Two blind writes to the same variable: the earlier writer is
     overwritten and invisible... but erasing the LAST writer changes the
     final memory, which no one has read, so it is still erasable. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let w p v sim =
    fst (Sim.run_call sim p ~label:"w" (Program.step (Op.Write (Var.addr x, v))))
  in
  let sim = w 0 1 sim in
  let sim = w 1 2 sim in
  check_true "overwritten writer erasable" (Sim.can_erase sim [ 0 ]);
  check_true "unread last writer erasable" (Sim.can_erase sim [ 1 ])

let test_erase_mid_call_preserves_state () =
  (* Erase a bystander while p0 is mid-call; p0's continuation must be
     reconstructed exactly. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let w = Var.Ctx.int ctx ~name:"w" ~home:(Var.Module 1) 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let prog =
    let* a = Program.read x in
    let* b = Program.read x in
    Program.return (a + b)
  in
  let sim = Sim.begin_call sim 0 ~label:"f" (Program.map Fun.id prog) in
  let sim = Sim.advance sim 0 in
  let sim, _ = Sim.run_call sim 1 ~label:"w" (Program.step (Op.Write (Var.addr w, 5))) in
  let erased = Sim.erase sim [ 1 ] in
  check_true "p0 still mid-call" (Sim.is_running erased 0);
  let finished = Sim.run_to_idle erased 0 in
  check_true "call completes with original semantics"
    (Sim.last_result finished 0 = Some 0)

let prop_erasure_preserves_survivor_rmrs =
  (* Run k processes on disjoint variables under a random interleaving;
     erasing any subset never changes the others' RMR counts. *)
  qcheck ~count:60 "erasing invisible processes preserves survivors' accounting"
    QCheck.(pair (int_range 2 5) (int_bound 1000))
    (fun (k, seed) ->
      let ctx = Var.Ctx.create () in
      let vars =
        Array.init k (fun i ->
            Var.Ctx.int ctx ~name:(Printf.sprintf "v%d" i) ~home:(Var.Module i) 0)
      in
      let layout = Var.Ctx.freeze ctx in
      let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:k in
      let prog i =
        let* () = Program.write vars.(i) 1 in
        let* v = Program.read vars.(i) in
        Program.return v
      in
      let behavior sim p : Schedule.action =
        if Sim.last_result sim p <> None then Stop
        else Start ("f", prog p)
      in
      let sim =
        Schedule.run ~policy:(Schedule.Random_seed seed) ~behavior
          ~pids:(List.init k Fun.id) sim
      in
      let victim = seed mod k in
      let erased = Sim.erase sim [ victim ] in
      List.for_all
        (fun p -> p = victim || Sim.rmrs erased p = Sim.rmrs sim p)
        (List.init k Fun.id))

(* --- lean mode (history-free stepping) --- *)

let test_lean_counters_match_full () =
  (* The same run, lean and full: every counter and call record agrees;
     only the per-step accumulators differ (empty when lean). *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let a = Var.addr x in
  let drive sim0 =
    let sim, _ =
      Sim.run_call sim0 0 ~label:"a" (Program.step (Op.Write (a, 5)))
    in
    fst (Sim.run_call sim 1 ~label:"b" (Program.step (Op.Read a)))
  in
  let fresh () = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let full = drive (fresh ()) in
  let lean = drive (Sim.lean_mode (fresh ())) in
  check_true "lean flagged" (Sim.is_lean lean);
  check_false "full not flagged" (Sim.is_lean full);
  check_int "total rmrs agree" (Sim.total_rmrs full) (Sim.total_rmrs lean);
  check_int "per-pid rmrs agree" (Sim.rmrs full 1) (Sim.rmrs lean 1);
  check_int "step counts agree" (Sim.step_count full 0) (Sim.step_count lean 0);
  check_true "call records agree" (Sim.calls full = Sim.calls lean);
  check_true "last results agree"
    (Sim.last_result full 1 = Sim.last_result lean 1);
  check_true "full machine keeps steps" (Sim.steps full <> []);
  check_true "lean machine keeps none" (Sim.steps lean = [])

let test_lean_replay_rejected () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.lean_mode (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2) in
  let sim, _ =
    Sim.run_call sim 0 ~label:"a" (Program.step (Op.Read (Var.addr x)))
  in
  Alcotest.check_raises "replay needs a trace"
    (Invalid_argument "Sim.replay: a lean machine keeps no replayable trace")
    (fun () -> ignore (Sim.replay ~keep:(fun _ -> true) sim));
  Alcotest.check_raises "so does erasing a stepless process"
    (Invalid_argument "Sim.replay: a lean machine keeps no replayable trace")
    (fun () -> ignore (Sim.erase sim [ 1 ]))

let test_lean_mode_rejects_history () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:1 in
  let sim, _ =
    Sim.run_call sim 0 ~label:"a" (Program.step (Op.Read (Var.addr x)))
  in
  Alcotest.check_raises "lean_mode only on a fresh machine"
    (Invalid_argument "Sim.lean_mode: machine already has recorded history")
    (fun () -> ignore (Sim.lean_mode sim))

let test_full_history_untraced_alloc () =
  (* With no tracer attached, a full-history step pays for its history
     record and nothing else: the trace event, whose variable name is
     rendered with Printf ("V[17]"), must not be built just to be dropped.
     The surcharge over the same step in lean mode measures 21.1 minor
     words per step; building the event makes it 92.1. *)
  let n = 64 in
  let ctx = Var.Ctx.create () in
  let v = Var.Ctx.bool_vec ctx ~name:"V" ~home:(fun i -> Var.Module i) n (fun _ -> false) in
  let layout = Var.Ctx.freeze ctx in
  let signal =
    Program.map
      (fun () -> 0)
      (Program.for_ 0 (n - 1) (fun i -> Program.write (Var.vec_get v i) true))
  in
  let words_per_step ~lean =
    let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n in
    let sim = if lean then Sim.lean_mode sim else sim in
    let w0 = Gc.minor_words () in
    let sim, _ = Sim.run_call sim 0 ~label:"signal" signal in
    (Gc.minor_words () -. w0) /. float_of_int (Sim.step_count sim 0)
  in
  let full = words_per_step ~lean:false and lean = words_per_step ~lean:true in
  check_true
    (Printf.sprintf "history surcharge %.1f <= 32 words/step (full %.1f, lean %.1f)"
       (full -. lean) full lean)
    (full -. lean <= 32.0)

let suite =
  [ case "call lifecycle" test_call_lifecycle;
    case "immediate return" test_immediate_return;
    case "begin while running rejected" test_begin_while_running_rejected;
    case "terminate rules" test_terminate_rules;
    case "event clock orders calls" test_clock_orders_calls_and_steps;
    case "rmr accounting incremental" test_rmr_accounting_incremental;
    case "next_is_rmr prediction" test_next_is_rmr;
    case "run_to_idle fuel" test_run_to_idle_fuel;
    case "erase invisible process" test_erase_invisible;
    case "erasing a stepless process returns the machine"
      test_erase_stepless_is_identity;
    case "erase visible process diverges" test_erase_visible_diverges;
    case "FAI chains defeat erasure" test_erase_fai_chain_diverges;
    case "blind write chains allow erasure" test_erase_blind_write_chain_ok;
    case "erasure preserves mid-call state" test_erase_mid_call_preserves_state;
    case "lean run matches full run's accounting" test_lean_counters_match_full;
    case "lean machine refuses replay" test_lean_replay_rejected;
    case "lean_mode refuses recorded history" test_lean_mode_rejects_history;
    case "untraced full-history steps build no events"
      test_full_history_untraced_alloc;
    prop_erasure_preserves_survivor_rmrs ]
