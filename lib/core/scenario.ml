(* Scenario drivers: execute a signaling algorithm under a cost model and a
   schedule, check Specification 4.1 over the recorded history, and report
   RMR accounting.

   Two drivers are provided.  [run_phased] is deterministic — waiters poll,
   the signaler signals, waiters poll until they learn — and is what the
   experiment tables use, so their numbers are reproducible.  [run_random]
   interleaves all processes at step granularity under a seeded PRNG and is
   what the property-based tests use to hunt for safety violations. *)

open Smr

type outcome = {
  sim : Sim.t;
  violations : Signaling.violation list;
  total_rmrs : int;
  total_messages : int;
  participants : int;
  signaler_rmrs : int;
  max_waiter_rmrs : int;
  amortized : float; (* total RMRs / participants *)
  unfinished_waiters : int; (* waiters that never saw the signal *)
}

let build (module A : Signaling.POLLING) cfg =
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate (module A) ctx cfg in
  (inst, Var.Ctx.freeze ctx)

(* The model labels the experiments sweep over. *)
type named_model = [ `Dsm | `Cc_wt | `Cc_wb | `Cc_lfcu ]

type model_tag = [ named_model | `Cc of Cc.protocol * Cc.interconnect ]

let named_models : named_model list = [ `Dsm; `Cc_wt; `Cc_wb; `Cc_lfcu ]

(* The one table of model tags: the protocol and interconnect a CC tag
   stands for, [None] for DSM. *)
let cc_of_tag : model_tag -> (Cc.protocol * Cc.interconnect) option = function
  | `Dsm -> None
  | `Cc_wt -> Some (Cc.Write_through, Cc.Bus)
  | `Cc_wb -> Some (Cc.Write_back, Cc.Bus)
  | `Cc_lfcu -> Some (Cc.Write_update, Cc.Bus)
  | `Cc (p, i) -> Some (p, i)

let model_tag_name : model_tag -> string = function
  | `Cc (p, i) ->
    Printf.sprintf "%s/%s" (Cc.protocol_name p) (Cc.interconnect_name i)
  | #named_model as tag -> (
    match cc_of_tag tag with Some (p, _) -> Cc.protocol_name p | None -> "dsm")

let make_model ~n layout tag =
  match cc_of_tag tag with
  | None -> Cost_model.dsm layout
  | Some (protocol, interconnect) -> Cc.model ~protocol ~interconnect ~n ()

let summarize cfg sim ~unfinished =
  let calls = Sim.calls sim in
  let violations = Signaling.check_polling calls in
  let participants = Sim.Pid_set.cardinal (Sim.participants sim) in
  let signaler_rmrs =
    List.fold_left (fun acc p -> max acc (Sim.rmrs sim p)) 0 cfg.Signaling.signalers
  in
  let max_waiter_rmrs =
    List.fold_left (fun acc p -> max acc (Sim.rmrs sim p)) 0 cfg.Signaling.waiters
  in
  let total_rmrs = Sim.total_rmrs sim in
  { sim;
    violations;
    total_rmrs;
    total_messages = Sim.total_messages sim;
    participants;
    signaler_rmrs;
    max_waiter_rmrs;
    amortized =
      (if participants = 0 then 0.
       else float_of_int total_rmrs /. float_of_int participants);
    unfinished_waiters = unfinished }

(* Deterministic: [pre_polls] rounds of Poll() per participating waiter
   (all returning false), one Signal(), then each participating waiter
   polls until it sees true (up to [post_poll_bound] attempts).

   [active_waiters] restricts which of the configured waiters actually
   participate — the partial-participation scenarios of E3/E4, where the
   amortized cost of an O(W)-signaler algorithm blows up because only
   o(W) waiters show up. *)
let run_phased (module A : Signaling.POLLING) ~model ~cfg ?tracer
    ?active_waiters ?(pre_polls = 2) ?(post_poll_bound = 4) ?fuel () =
  let inst, layout = build (module A) cfg in
  let participating =
    match active_waiters with Some l -> l | None -> cfg.Signaling.waiters
  in
  let model = make_model ~n:cfg.Signaling.n layout model in
  let sim =
    Sim.with_tracer (Sim.create ~model ~layout ~n:cfg.Signaling.n) tracer
  in
  let poll sim p =
    Sim.run_call ?fuel sim p ~label:Signaling.poll_label (inst.Signaling.i_poll p)
  in
  (* Phase 1: waiters poll and must see false. *)
  let sim =
    List.fold_left
      (fun sim round ->
        ignore round;
        List.fold_left
          (fun sim w ->
            let sim, r = poll sim w in
            if r <> 0 then
              failwith "Scenario.run_phased: Poll returned true before Signal";
            sim)
          sim participating)
      sim
      (List.init pre_polls Fun.id)
  in
  (* Phase 2: the signaler signals. *)
  let sim =
    List.fold_left
      (fun sim s ->
        fst
          (Sim.run_call ?fuel sim s ~label:Signaling.signal_label
             (inst.Signaling.i_signal s)))
      sim cfg.Signaling.signalers
  in
  (* Phase 3: waiters poll until true. *)
  let sim, unfinished =
    List.fold_left
      (fun (sim, unfinished) w ->
        let rec go sim attempts =
          if attempts >= post_poll_bound then (sim, false)
          else
            let sim, r = poll sim w in
            if r = 1 then (sim, true) else go sim (attempts + 1)
        in
        let sim, learned = go sim 0 in
        (sim, if learned then unfinished else unfinished + 1))
      (sim, 0) participating
  in
  summarize cfg sim ~unfinished

(* Randomized: all processes interleave at step granularity; the signaler
   fires once the event clock passes [signal_after].  Waiters poll until
   they see true, then stop.  [policy] overrides the uniform random walk —
   the PCT adversary passes [Schedule.Pct] here. *)
let run_random (module A : Signaling.POLLING) ~model ~cfg ~seed ?policy
    ?(signal_after = 50) ?(max_events = 200_000) () =
  let inst, layout = build (module A) cfg in
  let model = make_model ~n:cfg.Signaling.n layout model in
  let sim = Sim.create ~model ~layout ~n:cfg.Signaling.n in
  let is_signaler p = List.mem p cfg.Signaling.signalers in
  let signaled = Hashtbl.create 4 in
  let behavior sim p : Schedule.action =
    if is_signaler p then
      if Hashtbl.mem signaled p then Stop
      else if Sim.clock sim >= signal_after then (
        Hashtbl.replace signaled p ();
        Start (Signaling.signal_label, inst.Signaling.i_signal p))
      else Pause
    else
      match Sim.last_result sim p with
      | Some 1 -> Stop (* saw the signal *)
      | Some 0 | None ->
        Start (Signaling.poll_label, inst.Signaling.i_poll p)
      | Some _ -> assert false
  in
  let pids =
    List.sort_uniq compare (cfg.Signaling.waiters @ cfg.Signaling.signalers)
  in
  let policy =
    match policy with Some p -> p | None -> Schedule.Random_seed seed
  in
  let sim = Schedule.run ~max_events ~policy ~behavior ~pids sim in
  let unfinished =
    List.length
      (List.filter (fun w -> Sim.last_result sim w <> Some 1) cfg.Signaling.waiters)
  in
  summarize cfg sim ~unfinished

(* Blocking semantics: waiters call Wait() once — it returns only after a
   Signal() begins — while the signaler fires once the event clock passes
   [signal_after].  Checked against the blocking half of Spec. 4.1. *)
let run_blocking (module A : Signaling.BLOCKING) ~model ~cfg ~seed
    ?(signal_after = 60) ?(max_events = 500_000) () =
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate_blocking (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let model = make_model ~n:cfg.Signaling.n layout model in
  let sim = Sim.create ~model ~layout ~n:cfg.Signaling.n in
  let is_signaler p = List.mem p cfg.Signaling.signalers in
  let signaled = Hashtbl.create 4 in
  let started_wait = Hashtbl.create 16 in
  let behavior sim p : Schedule.action =
    if is_signaler p then
      if Hashtbl.mem signaled p then Stop
      else if Sim.clock sim >= signal_after then (
        Hashtbl.replace signaled p ();
        Start (Signaling.signal_label, inst.Signaling.b_signal p))
      else Pause
    else if Hashtbl.mem started_wait p then Stop
    else (
      Hashtbl.replace started_wait p ();
      Start (Signaling.wait_label, inst.Signaling.b_wait p))
  in
  let pids =
    List.sort_uniq compare (cfg.Signaling.waiters @ cfg.Signaling.signalers)
  in
  let sim =
    Schedule.run ~max_events ~policy:(Schedule.Random_seed seed) ~behavior ~pids
      sim
  in
  let calls = Sim.calls sim in
  let blocking_violations = Signaling.check_blocking calls in
  let unfinished =
    List.length
      (List.filter
         (fun w ->
           not
             (List.exists
                (fun (c : Smr.History.call) ->
                  c.Smr.History.c_pid = w
                  && c.Smr.History.c_label = Signaling.wait_label
                  && c.Smr.History.c_finished <> None)
                calls))
         cfg.Signaling.waiters)
  in
  (* [summarize] already contributes the polling-clause violations (none of
     which a blocking history's Wait calls can trigger twice), so the Wait
     clause's findings are simply appended. *)
  let base = summarize cfg sim ~unfinished in
  { base with violations = base.violations @ blocking_violations }
