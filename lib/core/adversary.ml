(* The Section 6 lower-bound construction, mechanized.

   Theorem 6.2 is proved by an adversary that (part 1) builds a regular
   history in which many waiters have "stabilized" — they busy-wait on local
   memory and will never again incur an RMR — while erasing or rolling
   forward any process that threatens to become visible to another; and
   (part 2) lets a judiciously chosen signaler run, erasing each stable
   waiter at the instant the signaler is about to see or touch it, forcing
   the signaler onto a "wild goose chase" worth one RMR per stabilized
   waiter while the surviving history contains O(1) participants.

   This module plays that construction against concrete algorithms:

   - Erasure is {!Smr.Sim.erase}: replay the trace without the victim,
     verifying that every survivor receives exactly its original responses.
     For read/write algorithms the verification always passes (a blind write
     leaves no trace in anyone's responses — Lemma 6.7); for F&I-based
     algorithms like [Dsm_queue] it fails, because every registrant is
     visible through the counter, and the failed erasures are reported —
     the mechanized witness of why the theorem's hypotheses exclude
     fetch-and-phi primitives.  An erasure's cost depends on its victim: a
     process that never took a step (every waiter dsm-broadcast's chase
     erases was declared stable before it began a call) costs O(log n),
     since there is nothing to replay; any other victim costs a replay of
     the whole trace, so a chase that erases such victims is quadratic in
     n.

   - Stability (Def. 6.8) is checked on an O(1) snapshot by running the
     process solo through [stability_polls] full Poll() calls and watching
     for RMRs; sound for poll-loop algorithms, whose local spin reaches a
     fixed point within a call or two (the horizon is a parameter).

   - Each part-1 round mirrors Lemma 6.10: advance every unstable waiter to
     its next RMR, resolve sees/touches conflicts by erasing the complement
     of a greedy independent set of the conflict graph (the Turán step),
     apply the read RMRs, and dispose of the write RMRs by the roll-forward
     case (many writers on one variable: keep them, roll the last writer
     forward to completion and termination) or the erasing case (one writer
     per variable, second conflict graph on previously-written variables).

   Regularity (Def. 6.6) of the evolving history is checked and reported
   after every round. *)

open Smr

module Pid_set = Sim.Pid_set

type round_stat = {
  round : int;
  active_before : int;
  stable : int; (* stable actives at classification time *)
  poised : int; (* unstable actives advanced to a pending RMR *)
  erased_conflicts : int;
  erased_writes : int;
  rolled_forward : Op.pid option;
  active_after : int;
  max_active_rmrs : int;
      (* property 3 of Def. 6.9: every active process has incurred at most
         [round + 1] RMRs once round [round] has been applied *)
  regular : bool;
  erase_failures : int; (* part-1 erasures that diverged and were skipped *)
}

type chase_stat = {
  signaler : Op.pid;
  signaler_rmrs : int;
  chase_erased : int;
  chase_erase_failures : int;
  signaler_steps : int;
}

type result = {
  algorithm : string;
  n : int;
  rounds : round_stat list;
  stable_waiters : int; (* actives stable when part 1 ended *)
  finished : int; (* |Fin| after part 1 *)
  part1_regular : bool;
  chase : chase_stat option; (* None if part 1 never stabilized everyone *)
  participants : int; (* in the final history *)
  total_rmrs : int; (* in the final history *)
  amortized : float; (* total_rmrs / participants *)
  spec_violated : bool;
      (* a surviving stable waiter polled false after Signal() completed —
         the contradiction at the heart of Lemma 6.13; never set for a
         correct algorithm *)
  spurious_true : bool; (* a Poll() returned true before any Signal() *)
  final_sim : Sim.t; (* the surviving history's machine, for inspection *)
}

exception Out_of_fuel of { phase : string; pid : Op.pid }

type state = {
  sim : Sim.t;
  active : Pid_set.t;
  fin : Pid_set.t;
  inst : Signaling.instance;
  spurious : bool;
}

(* Adversary decision events ride on the machine's tracer: each records
   what the construction chose to do (erase, roll forward, chase...) at
   the current logical clock.  [pid = -1] marks whole-round decisions. *)
let decide st ~decision ~pid ~detail =
  match Sim.tracer st.sim with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Adversary { t = Sim.clock st.sim; decision; pid; detail })

let isqrt x =
  let rec go r = if (r + 1) * (r + 1) <= x then go (r + 1) else r in
  if x < 0 then 0 else go 0

(* --- driving waiters through repeated Poll() calls --- *)

let begin_poll st p =
  Sim.begin_call st.sim p ~label:Signaling.poll_label (st.inst.Signaling.i_poll p)

(* Advance p in the real machine until its next step would be an RMR,
   starting new Poll() calls as it completes old ones.  Only called on
   processes the stability check classified unstable, so an RMR is reached
   within the check's horizon. *)
let advance_to_rmr ~fuel st p =
  let rec go st fuel =
    if fuel = 0 then raise (Out_of_fuel { phase = "advance to RMR"; pid = p })
    else
      match Sim.proc_state st.sim p with
      | Sim.Terminated -> st
      | Sim.Idle ->
        let spurious = st.spurious || Sim.last_result st.sim p = Some 1 in
        go { st with sim = begin_poll st p; spurious } (fuel - 1)
      | Sim.Running _ -> (
        match Sim.next_is_rmr st.sim p with
        | Some true -> st (* poised at its next RMR *)
        | Some false | None ->
          go { st with sim = Sim.advance st.sim p } (fuel - 1))
  in
  go st fuel

(* Definition 6.8 on a snapshot: run p solo through [polls] complete Poll()
   calls; stable iff it incurs no RMR.  The snapshot is discarded. *)
let is_stable ?(polls = 3) ?(fuel = 10_000) st p =
  let rmrs0 = Sim.rmrs st.sim p in
  (* The probe runs on a discarded snapshot: strip the tracer so probe
     steps never pollute the event stream or the metrics. *)
  let snapshot = Sim.with_tracer st.sim None in
  let rec go sim remaining fuel =
    if fuel = 0 then false (* ran too long: treat as unstable *)
    else if Sim.rmrs sim p > rmrs0 then false
    else
      match Sim.proc_state sim p with
      | Sim.Terminated -> true
      | Sim.Idle ->
        if remaining = 0 then true
        else
          go
            (Sim.begin_call sim p ~label:Signaling.poll_label
               (st.inst.Signaling.i_poll p))
            (remaining - 1) (fuel - 1)
      | Sim.Running _ -> go (Sim.advance sim p) remaining (fuel - 1)
  in
  go snapshot polls fuel

(* --- conflict graphs --- *)

(* The active processes p's pending operation would make visible: the owner
   of the module it touches, and the last writer of the value it observes
   (every operation except a blind write observes). *)
let visibility_targets st p =
  match Sim.peek st.sim p with
  | None -> []
  | Some inv ->
    let a = Op.addr_of inv in
    let mem = Sim.memory st.sim in
    let touch =
      match Var.layout_home (Sim.layout st.sim) a with
      | Var.Module q when q <> p && Pid_set.mem q st.active -> [ q ]
      | Var.Module _ | Var.Shared -> []
    in
    let sees =
      match inv with
      | Op.Write _ -> [] (* blind *)
      | _ -> (
        match Memory.last_writer mem a with
        | Some q when q <> p && Pid_set.mem q st.active -> [ q ]
        | Some _ | None -> [])
    in
    List.sort_uniq compare (touch @ sees)

(* Greedy independent set (the Turán step): visit vertices by ascending
   degree, keep a vertex iff none of its neighbours was kept. *)
let independent_set ~vertices ~edges =
  let degree = Hashtbl.create 64 in
  let bump v = Hashtbl.replace degree v (1 + Option.value ~default:0 (Hashtbl.find_opt degree v)) in
  List.iter
    (fun (p, q) ->
      bump p;
      bump q)
    edges;
  let deg v = Option.value ~default:0 (Hashtbl.find_opt degree v) in
  let ordered = List.sort (fun a b -> compare (deg a, a) (deg b, b)) vertices in
  let kept = Hashtbl.create 64 in
  let adjacent v =
    List.exists
      (fun (p, q) -> (p = v && Hashtbl.mem kept q) || (q = v && Hashtbl.mem kept p))
      edges
  in
  List.iter (fun v -> if not (adjacent v) then Hashtbl.replace kept v ()) ordered;
  fun v -> Hashtbl.mem kept v

(* Erase [victims] from the machine, skipping any whose erasure diverges
   (visible processes — impossible for read/write algorithms, routine for
   F&I ones).  Returns the new state and the number of failures. *)
let erase_best_effort st victims =
  List.fold_left
    (fun (st, failures) q ->
      if not (Pid_set.mem q st.active) then (st, failures)
      else
        match Sim.erase st.sim [ q ] with
        | sim ->
          decide st ~decision:"erase" ~pid:q ~detail:"";
          ({ st with sim; active = Pid_set.remove q st.active }, failures)
        | exception Sim.Replay_divergence _ ->
          decide st ~decision:"erase-blocked" ~pid:q ~detail:"visible";
          (st, failures + 1))
    (st, 0) victims

(* Resolve conflicts among the poised processes: build the conflict graph
   given by [targets] and erase victims until conflict-free; repeat
   (erasure changes last-writer information).  The victim choice is the
   [resolution] strategy: the proof's Turán step keeps a greedy
   independent set; the cruder [`Erase_all] ablation erases every conflict
   participant (sound, but needlessly shrinks the surviving waiter pool —
   the ablation quantifies by how much). *)
let resolve ?(resolution = `Independent_set) ~targets st poised =
  let rec go st poised erased failures guard =
    let live_poised = List.filter (fun p -> Pid_set.mem p st.active) poised in
    let edges =
      List.concat_map
        (fun p -> List.map (fun q -> (p, q)) (targets st p))
        live_poised
    in
    if edges = [] || guard = 0 then (st, live_poised, erased, failures)
    else
      let vertices = Pid_set.elements st.active in
      let keep =
        match resolution with
        | `Independent_set -> independent_set ~vertices ~edges
        | `Erase_all -> fun _ -> false
      in
      (* Only erase processes that actually participate in a conflict:
         erasing isolated vertices would shrink the active set for
         nothing. *)
      let in_conflict v = List.exists (fun (p, q) -> p = v || q = v) edges in
      let victims =
        List.filter (fun v -> (not (keep v)) && in_conflict v) vertices
      in
      let st, failed = erase_best_effort st victims in
      let succeeded = List.length victims - failed in
      if succeeded = 0 then
        (* Nothing erasable: the conflicts involve visible processes (F&I
           algorithms); give up on this resolution pass. *)
        (st, List.filter (fun p -> Pid_set.mem p st.active) poised,
         erased, failures + failed)
      else
        go st poised (erased + succeeded) (failures + failed) (guard - 1)
  in
  go st poised 0 0 (Pid_set.cardinal st.active + 2)

(* Conditions 1-2 of Def. 6.6: conflicts through the pending operations'
   sees/touches targets. *)
let resolve_conflicts ?resolution st poised =
  resolve ?resolution ~targets:visibility_targets st poised

(* Condition 3 of Def. 6.6 (the erasing case's second graph): a pending
   write on a variable previously written by another active process. *)
let prev_writer_targets st p =
  match Sim.peek st.sim p with
  | Some inv when not (Op.is_read_only inv) ->
    Memory.writers (Sim.memory st.sim) (Op.addr_of inv)
    |> List.filter (fun q -> q <> p && Pid_set.mem q st.active)
  | Some _ | None -> []

let resolve_write_conflicts ?resolution st poised =
  resolve ?resolution ~targets:prev_writer_targets st poised

(* Roll r forward (Lemma 6.10, roll-forward case): let it complete its
   ongoing Poll(), erasing any active process it is about to see or touch,
   then terminate it. *)
let roll_forward ~fuel st r =
  decide st ~decision:"roll-forward" ~pid:r ~detail:"";
  let rec go st fuel failures =
    if fuel = 0 then raise (Out_of_fuel { phase = "roll forward"; pid = r })
    else
      match Sim.proc_state st.sim r with
      | Sim.Idle | Sim.Terminated -> (st, failures)
      | Sim.Running _ ->
        let victims = visibility_targets st r in
        let st, f = erase_best_effort st victims in
        go { st with sim = Sim.advance st.sim r } (fuel - 1) (failures + f)
  in
  let st, failures = go st fuel 0 in
  let sim = Sim.terminate st.sim r in
  ( { st with
      sim;
      active = Pid_set.remove r st.active;
      fin = Pid_set.add r st.fin },
    failures )

(* Group the poised writers by target address; returns (addr, writers in
   poised order) with the largest group first. *)
let group_by_addr st writers =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match Sim.peek st.sim p with
      | Some inv ->
        let a = Op.addr_of inv in
        Hashtbl.replace tbl a
          (p :: Option.value ~default:[] (Hashtbl.find_opt tbl a))
      | None -> ())
    writers;
  Hashtbl.fold (fun a ps acc -> (a, List.rev ps) :: acc) tbl []
  |> List.sort (fun (_, ps) (_, qs) ->
         compare (List.length qs, qs) (List.length ps, ps))

let advance_pid st p = { st with sim = Sim.advance st.sim p }

(* One round of the Lemma 6.10 construction.  Returns [`Stabilized] when
   every active process is stable (part 1 is over), or the new state and
   the round's statistics. *)
let one_round ?resolution ~round ~stability_polls ~fuel st =
  let actives = Pid_set.elements st.active in
  let active_before = List.length actives in
  decide st ~decision:"round" ~pid:(-1)
    ~detail:(Printf.sprintf "round=%d active=%d" round active_before);
  let stable, unstable =
    List.partition (is_stable ~polls:stability_polls ~fuel st) actives
  in
  if unstable = [] then begin
    decide st ~decision:"stabilized" ~pid:(-1)
      ~detail:(Printf.sprintf "stable=%d" (List.length stable));
    `Stabilized (st, List.length stable)
  end
  else
    let st = List.fold_left (fun st p -> advance_to_rmr ~fuel st p) st unstable in
    let st, poised, erased_c, fail_c = resolve_conflicts ?resolution st unstable in
    let readers, writers =
      List.partition
        (fun p ->
          match Sim.peek st.sim p with
          | Some inv -> Op.is_read_only inv
          | None -> false)
        poised
    in
    (* Apply the read RMRs: conflict resolution guarantees they observe
       only finished processes (or initial values). *)
    let st = List.fold_left advance_pid st readers in
    let x = List.length writers in
    let st, erased_w, fail_w, rolled =
      if x = 0 then (st, 0, 0, None)
      else
        match group_by_addr st writers with
        | [] -> (st, 0, 0, None)
        | (_, group) :: _ when List.length group >= max 1 (isqrt x) ->
          (* Roll-forward case: keep the big same-variable group, erase the
             other writers, apply the group's writes, roll the last writer
             forward. *)
          let in_group = Pid_set.of_list group in
          let victims =
            List.filter (fun p -> not (Pid_set.mem p in_group)) writers
          in
          let st, f1 = erase_best_effort st victims in
          let group = List.filter (fun p -> Pid_set.mem p st.active) group in
          let st = List.fold_left advance_pid st group in
          (match List.rev group with
          | [] -> (st, List.length victims - f1, f1, None)
          | r :: _ ->
            let st, f2 = roll_forward ~fuel st r in
            (st, List.length victims - f1, f1 + f2, Some r))
        | groups ->
          (* Erasing case: one writer per variable, then resolve
             previously-written-variable conflicts, then apply. *)
          let reps = List.filter_map (fun (_, ps) -> List.nth_opt ps 0) groups in
          let is_rep = Pid_set.of_list reps in
          let victims =
            List.filter (fun p -> not (Pid_set.mem p is_rep)) writers
          in
          let st, f1 = erase_best_effort st victims in
          let st, reps, erased2, f2 = resolve_write_conflicts ?resolution st reps in
          let st = List.fold_left advance_pid st reps in
          (st, List.length victims - f1 + erased2, f1 + f2, None)
    in
    let finished q = Pid_set.mem q st.fin in
    let stat =
      { round;
        active_before;
        stable = List.length stable;
        poised = List.length poised;
        erased_conflicts = erased_c;
        erased_writes = erased_w;
        rolled_forward = rolled;
        active_after = Pid_set.cardinal st.active;
        max_active_rmrs =
          Pid_set.fold (fun p m -> max m (Sim.rmrs st.sim p)) st.active 0;
        regular = History.is_regular (Sim.steps st.sim) ~finished;
        erase_failures = fail_c + fail_w }
    in
    `Continue (st, stat)

(* --- Part 2: the wild goose chase (Lemma 6.13) --- *)

(* The signaler must be a process whose memory module no participant has
   written, so that every flag the signaler is forced to deliver is an RMR.
   HA histories let each process call Poll() and Signal() in any order
   (Def. 6.1), so the signaler may be one of the stable waiters; a process
   that never participated is preferred when one exists.  A finished
   (rolled-forward) process cannot be chosen: it has terminated. *)
let choose_signaler st =
  let sim = st.sim in
  let written_modules =
    (* Modules written by a process other than their owner: a self-write
       does not disqualify (the proof needs "process p has never written
       memory local to s" for p ≠ s). *)
    List.fold_left
      (fun acc (s : History.step) ->
        if s.History.wrote then
          match s.History.home with
          | Var.Module q when q <> s.History.pid -> Pid_set.add q acc
          | Var.Module _ | Var.Shared -> acc
        else acc)
      Pid_set.empty (Sim.steps sim)
  in
  let candidates =
    List.filter
      (fun p ->
        (not (Pid_set.mem p st.fin)) && not (Pid_set.mem p written_modules))
      (List.init (Sim.n sim) Fun.id)
  in
  let fresh, stable =
    List.partition (fun p -> not (Pid_set.mem p st.active)) candidates
  in
  match (fresh, stable) with
  | p :: _, _ -> Some p
  | [], p :: _ -> Some p
  | [], [] -> None

(* Let the chosen signaler run Signal() to completion, erasing every stable
   waiter it is about to see or touch just before the offending step.
   Erasures that diverge mark the target unerasable (it is visible — the
   F&I defense) and the signaler proceeds. *)
let goose_chase ~fuel st s =
  let st =
    { st with
      sim =
        Sim.begin_call st.sim s ~label:Signaling.signal_label
          (st.inst.Signaling.i_signal s) }
  in
  let rec go st fuel erased failures unerasable =
    if fuel = 0 then raise (Out_of_fuel { phase = "goose chase"; pid = s })
    else
      match Sim.proc_state st.sim s with
      | Sim.Idle | Sim.Terminated -> (st, erased, failures)
      | Sim.Running _ -> (
        let targets =
          List.filter
            (fun q -> not (Pid_set.mem q unerasable))
            (visibility_targets st s)
        in
        match targets with
        | [] -> go (advance_pid st s) (fuel - 1) erased failures unerasable
        | q :: _ -> (
          match Sim.erase st.sim [ q ] with
          | sim ->
            decide st ~decision:"chase-erase" ~pid:q ~detail:"";
            go
              { st with sim; active = Pid_set.remove q st.active }
              fuel (erased + 1) failures unerasable
          | exception Sim.Replay_divergence _ ->
            decide st ~decision:"chase-blocked" ~pid:q ~detail:"visible";
            go st fuel erased (failures + 1) (Pid_set.add q unerasable)))
  in
  go st fuel 0 0 Pid_set.empty

(* After Signal() completed, every surviving stable waiter must now be able
   to see the signal: poll each one (on a snapshot) and flag a
   specification violation if any still reads false — the contradiction of
   Lemma 6.13. *)
let validate_survivors ~fuel st =
  (* Validation polls run on discarded snapshots — silence them. *)
  let snapshot = Sim.with_tracer st.sim None in
  Pid_set.fold
    (fun p violated ->
      violated
      ||
      let sim = Sim.run_to_idle ~fuel snapshot p in
      let sim, result =
        Sim.run_call ~fuel sim p ~label:Signaling.poll_label
          (st.inst.Signaling.i_poll p)
      in
      ignore sim;
      result = 0)
    st.active false

(* --- the full construction --- *)

(* Every pid is a potential waiter and a potential signaler. *)
let all_pids_config n =
  let pids = List.init n Fun.id in
  Signaling.config ~n ~waiters:pids ~signalers:pids

let validate (module A : Signaling.POLLING) ~n ?stability_polls ?max_rounds () =
  let nonneg name =
    Option.fold ~none:(Ok ()) ~some:(Signaling.at_least 0 name)
  in
  let ( let* ) = Result.bind in
  let* () = Signaling.at_least 1 "-n" n in
  let* () = nonneg "--rounds" max_rounds in
  let* () = nonneg "--stability-polls" stability_polls in
  let* () =
    if A.flexibility.Signaling.signaler_fixed then
      Error
        (Printf.sprintf
           "%s fixes its signaler in advance; the lower bound concerns \
            algorithms whose signaler is not fixed"
           A.name)
    else Ok ()
  in
  Signaling.validate_config A.flexibility (all_pids_config n)

let run (module A : Signaling.POLLING) ~n ?tracer ?(stability_polls = 3)
    ?(max_rounds = 24) ?(fuel = 2_000_000) ?resolution () =
  (match validate (module A) ~n ~stability_polls ~max_rounds () with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Adversary.run: " ^ msg));
  let ctx = Var.Ctx.create () in
  let cfg = all_pids_config n in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let sim =
    Sim.with_tracer (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n)
      tracer
  in
  let st =
    { sim;
      active = Pid_set.of_list cfg.Signaling.waiters;
      fin = Pid_set.empty;
      inst;
      spurious = false }
  in
  (* Part 1: rounds until every active waiter is stable. *)
  let rec rounds st acc i =
    if i >= max_rounds then (st, List.rev acc, None)
    else
      match one_round ?resolution ~round:i ~stability_polls ~fuel st with
      | `Stabilized (st, stable) -> (st, List.rev acc, Some stable)
      | `Continue (st, stat) -> rounds st (stat :: acc) (i + 1)
  in
  let st, round_stats, stabilized = rounds st [] 0 in
  let finished q = Pid_set.mem q st.fin in
  let part1_regular = History.is_regular (Sim.steps st.sim) ~finished in
  (* The result, over the machine the construction stopped with. *)
  let result st ~stable_waiters ~chase ~spec_violated =
    let participants = Pid_set.cardinal (Sim.participants st.sim) in
    let total_rmrs = Sim.total_rmrs st.sim in
    { algorithm = A.name;
      n;
      rounds = round_stats;
      stable_waiters;
      finished = Pid_set.cardinal st.fin;
      part1_regular;
      chase;
      participants;
      total_rmrs;
      amortized =
        (if participants = 0 then 0.
         else float_of_int total_rmrs /. float_of_int participants);
      spec_violated;
      spurious_true = st.spurious;
      final_sim = st.sim }
  in
  match stabilized with
  | None ->
    (* The construction failed to stabilize the waiters within the round
       budget — report what happened without a chase. *)
    result st ~stable_waiters:0 ~chase:None ~spec_violated:false
  | Some stable_waiters -> (
    (* Let each stable process run solo to the end of its pending call;
       stability means this costs no RMRs. *)
    let st =
      Pid_set.fold
        (fun p st -> { st with sim = Sim.run_to_idle ~fuel st.sim p })
        st.active st
    in
    match choose_signaler st with
    | None -> result st ~stable_waiters ~chase:None ~spec_violated:false
    | Some s ->
      (* If the signaler is drafted from the stable waiters, it stops
         being a chase target itself. *)
      decide st ~decision:"signaler" ~pid:s ~detail:"";
      let st = { st with active = Pid_set.remove s st.active } in
      let st, erased, failures = goose_chase ~fuel st s in
      let spec_violated = validate_survivors ~fuel st in
      result st ~stable_waiters ~spec_violated
        ~chase:
          (Some
             { signaler = s;
               signaler_rmrs = Sim.rmrs st.sim s;
               chase_erased = erased;
               chase_erase_failures = failures;
               signaler_steps = Sim.step_count st.sim s }))

let pp_round ppf r =
  Fmt.pf ppf
    "round %d: active %d -> %d (stable %d, poised %d, erased %d+%d%s)%s%s"
    r.round r.active_before r.active_after r.stable r.poised r.erased_conflicts
    r.erased_writes
    (match r.rolled_forward with
    | Some p -> Printf.sprintf ", rolled p%d forward" p
    | None -> "")
    (if r.regular then "" else " [irregular]")
    (if r.erase_failures > 0 then
       Printf.sprintf " [%d erasures blocked]" r.erase_failures
     else "")

let pp_result ppf r =
  Fmt.pf ppf "adversary vs %s (N=%d):@." r.algorithm r.n;
  List.iter (fun s -> Fmt.pf ppf "  %a@." pp_round s) r.rounds;
  Fmt.pf ppf "  part 1: %d stable waiters, %d finished, regular=%b@."
    r.stable_waiters r.finished r.part1_regular;
  (match r.chase with
  | None -> Fmt.pf ppf "  part 2: no chase (construction did not complete)@."
  | Some c ->
    Fmt.pf ppf
      "  part 2: signaler p%d incurred %d RMRs (%d waiters erased, %d \
       erasures blocked)@."
      c.signaler c.signaler_rmrs c.chase_erased c.chase_erase_failures);
  Fmt.pf ppf "  final history: %d participants, %d total RMRs, %.2f amortized%s%s@."
    r.participants r.total_rmrs r.amortized
    (if r.spec_violated then " [SPEC VIOLATED]" else "")
    (if r.spurious_true then " [SPURIOUS TRUE]" else "")

(* --- Randomized adversary strategies ---

   The Section 6 construction above plays one hand-built strategy
   (erasing/rolling-forward).  These two play probability instead: a
   PCT-style priority schedule (random distinct priorities, d-1 random
   demotion points — detection probability >= 1/(n * horizon^(d-1)) per
   seed for a depth-d bug) and a plain seed-reproducible uniform random
   walk.  Both drive the standard open workload (waiters poll until they
   learn, the signaler fires once the clock passes [signal_after]) and
   report the Spec 4.1 verdict alongside the RMR accounting, so the fuzz
   harness and the CLI can sweep seeds. *)

type random_outcome = {
  ro_policy : string;
  ro_seed : int;
  ro_outcome : Scenario.outcome;
}

let run_randomized policy (module A : Signaling.POLLING) ~n ~seed ?cfg ?model
    ?signal_after ?max_events () =
  let cfg =
    match cfg with Some c -> c | None -> Algorithms.config_for (module A) ~n
  in
  let model = match model with Some m -> m | None -> `Dsm in
  let outcome =
    Scenario.run_random
      (module A)
      ~model ~cfg ~seed ~policy ?signal_after ?max_events ()
  in
  { ro_policy = Schedule.policy_name policy; ro_seed = seed; ro_outcome = outcome }

let run_pct (module A : Signaling.POLLING) ~n ~seed ?(depth = 3) ?horizon ?cfg
    ?model ?signal_after ?max_events () =
  let horizon =
    match horizon with
    | Some h -> h
    | None -> 40 * n (* roughly the step count of an n-process run *)
  in
  (* Past the last demotion point the priority order is frozen, so events
     beyond a small multiple of the horizon cannot change the verdict —
     they only let a fixed top-priority waiter spin to the generic event
     cap.  PCT's detection guarantee is stated over the horizon anyway. *)
  let max_events =
    match max_events with Some m -> m | None -> max (8 * horizon) 2_000
  in
  run_randomized
    (Schedule.Pct { seed; depth; horizon })
    (module A)
    ~n ~seed ?cfg ?model ?signal_after ~max_events ()

let run_walk (module A : Signaling.POLLING) ~n ~seed ?cfg ?model
    ?signal_after ?max_events () =
  run_randomized
    (Schedule.Random_seed seed)
    (module A)
    ~n ~seed ?cfg ?model ?signal_after ?max_events ()

let pp_random_outcome ppf r =
  let o = r.ro_outcome in
  Fmt.pf ppf
    "%s: %d RMRs total (signaler %d, max waiter %d), %d participants, %d \
     unfinished, %d violation(s)"
    r.ro_policy o.Scenario.total_rmrs o.Scenario.signaler_rmrs
    o.Scenario.max_waiter_rmrs o.Scenario.participants
    o.Scenario.unfinished_waiters
    (List.length o.Scenario.violations)
