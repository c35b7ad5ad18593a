(* The differential checking lattice.

   Each oracle runs one case through two (or more) independent
   implementations of the same semantics and demands agreement:

   - lean_vs_full: the persistent machine with and without per-step
     history accumulation — lean mode promises every counter, call
     record and memory cell is maintained identically.
   - sim_vs_flat: the persistent machine against the mutable
     struct-of-arrays engine, with the flat cache sized so its LRU can
     never evict (the regime where the two are documented to match
     exactly).
   - por_vs_nopor: the model checker with dedup + sleep-set POR against
     the literal one-leaf-per-interleaving enumeration; the Spec 4.1
     verdict must be identical.
   - claims_vs_measured: a registry entry's static claims (primitive
     classes, DSM RMR bounds, spin locality) against what a measured
     execution actually does — the dynamic half of the lint.
   - amortized_vs_measured: the amortized-RMR abstract interpreter's
     proven (cold, steady, refills) figures for a polling entry's
     Signal() against the open-system workload driver's measured
     signaler RMRs under every CC protocol — the dynamic half of the
     amortized lint.
   - cc_invariants: cost models are pure folds over one execution, so
     responses, memory, clock and per-call step counts must not depend
     on the model; with unbounded caches LFCU never bills more than
     write-through (and write-back never does on read/write-only
     histories), while DSM bills a step iff the accessed cell's home is
     remote.

   Every oracle is deterministic: same case, same verdict, bytewise. *)

open Smr

type verdict =
  | Agree of int (* number of comparisons performed *)
  | Disagree of string
  | Skip (* not applicable / budget truncation; not a finding *)

type id =
  | Lean_vs_full
  | Sim_vs_flat
  | Por_vs_nopor
  | Claims_vs_measured
  | Amortized_vs_measured
  | Cc_invariants

let all =
  [ Lean_vs_full; Sim_vs_flat; Por_vs_nopor; Claims_vs_measured;
    Amortized_vs_measured; Cc_invariants ]

let name = function
  | Lean_vs_full -> "lean-vs-full"
  | Sim_vs_flat -> "sim-vs-flat"
  | Por_vs_nopor -> "por-vs-nopor"
  | Claims_vs_measured -> "claims-vs-measured"
  | Amortized_vs_measured -> "amortized-vs-measured"
  | Cc_invariants -> "cc-invariants"

let of_name s = List.find_opt (fun o -> name o = s) all

let applies o (case : Case.t) =
  match (o, case.family) with
  | Por_vs_nopor, Case.Script _ -> true
  | Por_vs_nopor, _ -> false
  | (Claims_vs_measured | Amortized_vs_measured), Case.Entry _ -> true
  | (Claims_vs_measured | Amortized_vs_measured), _ -> false
  | (Lean_vs_full | Sim_vs_flat | Cc_invariants), _ -> true

(* Relative cost of one evaluation, for the deterministic budget. *)
let weight = function
  | Lean_vs_full -> 2
  | Sim_vs_flat -> 2
  | Por_vs_nopor -> 12
  | Claims_vs_measured -> 4
  | Amortized_vs_measured -> 8
  | Cc_invariants -> 4

(* {1 Cost models} *)

type tag = Core.Scenario.named_model

let tags = Core.Scenario.named_models

let tag_name (t : tag) =
  Core.Scenario.model_tag_name (t :> Core.Scenario.model_tag)

let tag_for_index i = List.nth tags (((i mod 4) + 4) mod 4)

let sim_cost ~n layout (t : tag) =
  Core.Scenario.make_model ~n layout (t :> Core.Scenario.model_tag)

let flat_spec layout (t : tag) =
  Core.Loadgen.flat_model
    ~ways:(max 1 (Var.layout_size layout))
    (t :> Core.Scenario.model_tag)

(* {1 Drivers}

   Both engines consume the same decision list; control decisions (what
   to begin, whether a pid is runnable) are taken from the engine being
   driven, which the differential then proves equivalent by induction:
   the first divergence in observable state is exactly what the
   comparison reports. *)

let norm_pid n p = if n <= 0 then 0 else ((p mod n) + n) mod n

type observation = {
  o_clock : int;
  o_rmrs : int;
  o_messages : int;
  o_memory : (Op.addr * Op.value) list;
  o_calls : History.call list; (* sorted by (pid, seq) *)
}

let canon_calls calls =
  List.sort
    (fun (a : History.call) (b : History.call) ->
      compare (a.History.c_pid, a.History.c_seq) (b.History.c_pid, b.History.c_seq))
    calls

let drive_sim ~lean ~(tag : tag) (rn : Case.runnable) schedule =
  let cost = sim_cost ~n:rn.Case.r_n rn.Case.r_layout tag in
  let sim = Sim.create ~model:cost ~layout:rn.Case.r_layout ~n:rn.Case.r_n in
  let sim = if lean then Sim.lean_mode sim else sim in
  let queues = Array.copy rn.Case.r_calls in
  let apply sim d =
    match d with
    | Case.Crash p ->
      let p = norm_pid rn.Case.r_n p in
      if Sim.is_running sim p then Sim.crash sim p else sim
    | Case.Step p -> (
      let p = norm_pid rn.Case.r_n p in
      if Sim.is_terminated sim p then sim
      else if Sim.is_running sim p then Sim.advance sim p
      else
        match queues.(p) with
        | [] -> sim
        | (label, prog) :: rest ->
          queues.(p) <- rest;
          Sim.begin_call sim p ~label prog)
  in
  let sim = List.fold_left apply sim schedule in
  (* Crash every in-flight call so the call-record sets line up with the
     flat engine, which reports calls only at their end. *)
  let sim = ref sim in
  for p = 0 to rn.Case.r_n - 1 do
    if Sim.is_running !sim p then sim := Sim.crash !sim p
  done;
  !sim

let observe_sim (rn : Case.runnable) sim =
  { o_clock = Sim.clock sim;
    o_rmrs = Sim.total_rmrs sim;
    o_messages = Sim.total_messages sim;
    o_memory =
      List.map
        (fun a -> (a, Memory.get (Sim.memory sim) a))
        (Var.layout_addrs rn.Case.r_layout);
    o_calls = canon_calls (Sim.calls sim) }

let drive_flat ~(tag : tag) (rn : Case.runnable) schedule =
  let acc = ref [] in
  let on_complete ~pid ~label ~seq ~started ~finished ~crashed ~result ~rmrs
      ~steps =
    acc :=
      { History.c_pid = pid;
        c_label = label;
        c_seq = seq;
        c_started = started;
        c_finished = (if crashed then None else Some finished);
        c_result = (if crashed then None else Some result);
        c_rmrs = rmrs;
        c_steps = steps }
      :: !acc
  in
  let flat =
    Flat_sim.create ~on_complete
      ~ll_ways:(max 4 (Var.layout_size rn.Case.r_layout))
      ~model:(flat_spec rn.Case.r_layout tag)
      ~layout:rn.Case.r_layout ~n:rn.Case.r_n ()
  in
  let queues = Array.copy rn.Case.r_calls in
  let apply d =
    match d with
    | Case.Crash p ->
      let p = norm_pid rn.Case.r_n p in
      if Flat_sim.is_running flat p then Flat_sim.crash flat p
    | Case.Step p -> (
      let p = norm_pid rn.Case.r_n p in
      if Flat_sim.is_terminated flat p then ()
      else if Flat_sim.is_running flat p then Flat_sim.advance flat p
      else
        match queues.(p) with
        | [] -> ()
        | (label, prog) :: rest ->
          queues.(p) <- rest;
          Flat_sim.begin_call flat p ~label prog)
  in
  List.iter apply schedule;
  for p = 0 to rn.Case.r_n - 1 do
    if Flat_sim.is_running flat p then Flat_sim.crash flat p
  done;
  ( { o_clock = Flat_sim.clock flat;
      o_rmrs = Flat_sim.total_rmrs flat;
      o_messages = Flat_sim.total_messages flat;
      o_memory =
        List.map
          (fun a -> (a, Flat_sim.value flat a))
          (Var.layout_addrs rn.Case.r_layout);
      o_calls = canon_calls !acc },
    flat )

let pp_call = History.pp_call

let compare_observations ~left ~right a b =
  if a.o_clock <> b.o_clock then
    Some (Fmt.str "clock: %s=%d %s=%d" left a.o_clock right b.o_clock)
  else if a.o_rmrs <> b.o_rmrs then
    Some (Fmt.str "total rmrs: %s=%d %s=%d" left a.o_rmrs right b.o_rmrs)
  else if a.o_messages <> b.o_messages then
    Some
      (Fmt.str "total messages: %s=%d %s=%d" left a.o_messages right
         b.o_messages)
  else if a.o_memory <> b.o_memory then
    let diff =
      List.filter_map
        (fun ((addr, va), (_, vb)) ->
          if va <> vb then Some (Fmt.str "[%d]=%d/%d" addr va vb) else None)
        (List.combine a.o_memory b.o_memory)
    in
    Some (Fmt.str "memory (%s/%s): %s" left right (String.concat " " diff))
  else if List.length a.o_calls <> List.length b.o_calls then
    Some
      (Fmt.str "call count: %s=%d %s=%d" left
         (List.length a.o_calls)
         right
         (List.length b.o_calls))
  else
    match
      List.find_opt
        (fun (ca, cb) -> ca <> cb)
        (List.combine a.o_calls b.o_calls)
    with
    | Some (ca, cb) ->
      Some (Fmt.str "call record: %s=%a %s=%a" left pp_call ca right pp_call cb)
    | None -> None

(* {1 The oracles} *)

let lean_vs_full (case : Case.t) =
  let rn = Case.elaborate case in
  let tag = tag_for_index case.index in
  let full = observe_sim rn (drive_sim ~lean:false ~tag rn case.schedule) in
  let lean = observe_sim rn (drive_sim ~lean:true ~tag rn case.schedule) in
  match compare_observations ~left:"full" ~right:"lean" full lean with
  | Some d -> Disagree (Fmt.str "[%s] %s" (tag_name tag) d)
  | None -> Agree (5 + List.length full.o_calls)

let sim_vs_flat (case : Case.t) =
  let rn = Case.elaborate case in
  let tag = tag_for_index (case.index + 1) in
  let sim = observe_sim rn (drive_sim ~lean:false ~tag rn case.schedule) in
  let flat, _ = drive_flat ~tag rn case.schedule in
  match compare_observations ~left:"sim" ~right:"flat" sim flat with
  | Some d -> Disagree (Fmt.str "[%s] %s" (tag_name tag) d)
  | None -> Agree (5 + List.length sim.o_calls)

let por_vs_nopor (case : Case.t) =
  match case.family with
  | Case.Programs _ | Case.Entry _ -> Skip
  | Case.Script { algorithm; polls } -> (
    (* Naive enumeration is exponential, so the exploration oracle runs
       the smallest nontrivial scope: one waiter, one signaler, at most
       two polls.  POR + dedup against the literal enumeration on the
       same scope must reach the same Spec 4.1 verdict. *)
    let polls = min (max 1 polls) 2 in
    match Case.script_instance ~n:2 ~algorithm with
    | None -> Skip
    | Some (cfg, inst, layout) ->
      let model = Cost_model.dsm layout in
      let scripts =
        List.map
          (fun s ->
            ( s,
              Explore.of_list
                [ (Core.Signaling.signal_label, inst.Core.Signaling.i_signal s)
                ] ))
          cfg.Core.Signaling.signalers
        @ List.map
            (fun w ->
              ( w,
                Explore.repeat ~limit:polls
                  ~until:(fun r -> r = 1)
                  (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w) ))
            cfg.Core.Signaling.waiters
      in
      let property calls = Core.Signaling.check_polling calls = [] in
      let run ~dedup ~por =
        Explore.check ~max_histories:50_000 ~max_steps_per_history:300 ~dedup
          ~por ~layout ~model ~n:cfg.Core.Signaling.n ~scripts ~property ()
      in
      let reduced = run ~dedup:true ~por:true in
      let naive = run ~dedup:false ~por:false in
      if not (reduced.Explore.complete && naive.Explore.complete) then Skip
      else if
        (reduced.Explore.violation <> None) <> (naive.Explore.violation <> None)
      then
        Disagree
          (Fmt.str
             "%s: por+dedup %s a Spec 4.1 violation over %d states, the \
              literal enumeration %s one over %d histories"
             algorithm
             (if reduced.Explore.violation <> None then "found" else "missed")
             reduced.Explore.stats.Explore.states
             (if naive.Explore.violation <> None then "found" else "missed")
             naive.Explore.histories)
      else Agree 1)

(* Dynamic lint: measure a registry entry's calls under the DSM model and
   hold the measurements against the entry's declared claims.  The static
   analyzer proves the claims over the CFG; here a real execution must
   not be able to exceed them — a mutant whose claims flatter it (the
   seeded lint fixtures) loses on both fronts. *)
let claims_vs_measured (case : Case.t) =
  match case.family with
  | Case.Programs _ | Case.Script _ -> Skip
  | Case.Entry { entry; repeats } -> (
    match Analysis.Registry.find entry with
    | None -> Skip
    | Some e ->
      let repeats = max 1 repeats in
      let fuel = 512 in
      let spin_rmr_bound = 64 in
      let cost = Cost_model.dsm e.Analysis.Registry.layout in
      let fresh () =
        Sim.create ~model:cost ~layout:e.Analysis.Registry.layout
          ~n:e.Analysis.Registry.n
      in
      let problems = ref [] in
      let checks = ref 0 in
      let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
      let run_one sim (c : Analysis.Registry.call) p =
        (* A fuel-crashed process stays crashed (a crash is forever), so
           later repeats simply skip it. *)
        if Sim.is_terminated !sim p then ()
        else
        let s =
          Sim.begin_call !sim p ~label:c.Analysis.Registry.label
            (c.Analysis.Registry.program p)
        in
        let rec go s fuel =
          if fuel <= 0 || not (Sim.is_running s p) then s
          else go (Sim.advance s p) (fuel - 1)
        in
        let s = go s fuel in
        let s = if Sim.is_running s p then Sim.crash s p else s in
        sim := s;
        let seq = Sim.call_count s p - 1 in
        match
          List.find_opt
            (fun (r : History.call) -> r.History.c_seq = seq)
            (Sim.calls_of s p)
        with
        | None -> ()
        | Some record ->
          let claim =
            Analysis.Claims.call e.Analysis.Registry.claims
              c.Analysis.Registry.label
          in
          incr checks;
          (match claim.Analysis.Claims.dsm_rmrs with
          | Analysis.Claims.Rmr k ->
            if record.History.c_rmrs > k then
              problem
                "%s/%s (pid %d): measured %d DSM RMRs exceed the claimed \
                 bound of %d"
                entry c.Analysis.Registry.label p record.History.c_rmrs k
          | Analysis.Claims.Unbounded -> ());
          (match claim.Analysis.Claims.spin with
          | Analysis.Claims.No_spin | Analysis.Claims.Local_spin ->
            if record.History.c_finished = None && record.History.c_rmrs > spin_rmr_bound
            then
              problem
                "%s/%s (pid %d): burned %d RMRs in %d steps without \
                 completing under a %s claim (remote busy-wait)"
                entry c.Analysis.Registry.label p record.History.c_rmrs
                record.History.c_steps
                (Analysis.Claims.spin_name claim.Analysis.Claims.spin)
          | Analysis.Claims.Remote_spin -> ())
      in
      (* Phase 1 — solo: every call measured from the initial state, one
         process alone.  A Wait()/acquire measured before anyone signals
         or releases is exactly where a mis-claimed spin shows its
         locality (mutant-remote-spin survives the sequential phase,
         where the preceding Signal() makes its wait return at once). *)
      let solo_sims =
        List.concat_map
          (fun (c : Analysis.Registry.call) ->
            List.map
              (fun p ->
                let sim = ref (fresh ()) in
                run_one sim c p;
                !sim)
              c.Analysis.Registry.pids)
          e.Analysis.Registry.calls
      in
      (* Phase 2 — sequential: all calls share one machine, [repeats]
         rounds, so later calls observe earlier effects. *)
      let shared = ref (fresh ()) in
      for _ = 1 to repeats do
        List.iter
          (fun (c : Analysis.Registry.call) ->
            List.iter (run_one shared c) c.Analysis.Registry.pids)
          e.Analysis.Registry.calls
      done;
      (* Declared primitive classes must cover every executed strong
         primitive.  Reads and writes are the base vocabulary every
         algorithm may use; it is the comparison and fetch-and-phi steps
         that decide which lower bound applies (Thm. 6.2 / Cor. 6.14 /
         Sec. 7), so executing one undeclared is a lie about complexity
         class — the lie mutant-cas-flag tells. *)
      List.iter
        (fun sim ->
          List.iter
            (fun (s : History.step) ->
              incr checks;
              let cls = Op.primitive_class s.History.inv in
              if
                cls <> Op.Reads_writes
                && not (List.mem cls e.Analysis.Registry.primitives)
              then
                problem
                  "%s: executed a %s step (%s) outside the declared classes"
                  entry
                  (Fmt.str "%a" Op.pp_primitive_class cls)
                  (Op.show_invocation s.History.inv))
            (Sim.steps sim))
        (!shared :: solo_sims);
      if !problems = [] then Agree !checks
      else Disagree (String.concat "; " (List.sort_uniq compare !problems)))

(* Dynamic half of the amortized lint.  The abstract interpreter proves a
   (cold, steady, refills) accounting for every call: total CC RMRs over N
   calls stay within cold + N*steady plus [refills] per external-mutation
   epoch.  Here the open-system workload driver runs the same polling
   entry at small scale under every CC protocol, and the signaler's
   measured RMR total must obey that identity with one epoch charged per
   completed poll (every external write happens inside some poll; the
   driver's crash and early-leave knobs stay at zero so completed polls
   are exactly the external activity).  The cache is sized so the flat
   LRU never evicts — the ideal-cache regime the static pass models. *)

(* Lint is pure in the entry (the registry re-registers identically named
   entries identically), so one static analysis serves every case that
   draws the same entry. *)
let lint_memo : (string, Analysis.Lint.report) Hashtbl.t = Hashtbl.create 8

let lint_report (e : Analysis.Registry.entry) =
  match Hashtbl.find_opt lint_memo e.Analysis.Registry.name with
  | Some r -> r
  | None ->
    let r = Analysis.Lint.run e in
    Hashtbl.add lint_memo e.Analysis.Registry.name r;
    r

let amortized_vs_measured (case : Case.t) =
  match case.family with
  | Case.Programs _ | Case.Script _ -> Skip
  | Case.Entry { entry; repeats } -> (
    match Analysis.Registry.find entry with
    | None -> Skip
    | Some e -> (
      let find_call l =
        List.find_opt
          (fun (c : Analysis.Registry.call) -> c.Analysis.Registry.label = l)
          e.Analysis.Registry.calls
      in
      (* Only the driver's shape fits: pid 0 signals, pids 1..k poll. *)
      match (find_call "signal", find_call "poll") with
      | Some signal_call, Some poll_call
        when List.mem 0 signal_call.Analysis.Registry.pids
             && poll_call.Analysis.Registry.pids <> []
             && poll_call.Analysis.Registry.pids
                = List.init
                    (List.length poll_call.Analysis.Registry.pids)
                    (fun i -> i + 1) -> (
        let report = lint_report e in
        match
          List.find_opt
            (fun (c : Analysis.Lint.call_report) ->
              c.Analysis.Lint.call = "signal")
            report.Analysis.Lint.calls
        with
        | Some cr when cr.Analysis.Lint.complete -> (
          let am = cr.Analysis.Lint.amortized in
          match (am.Analysis.Amortized.cold, am.Analysis.Amortized.steady) with
          | Analysis.Claims.Unbounded, _ | _, Analysis.Claims.Unbounded ->
            Skip (* nothing finite to hold the measurement against *)
          | Analysis.Claims.Rmr cold, Analysis.Claims.Rmr steady ->
            let refills = am.Analysis.Amortized.refills in
            let layout = e.Analysis.Registry.layout in
            let ways = max 1 (Var.layout_size layout) in
            let spec =
              { Workload.Driver.default_spec with
                Workload.Driver.seed = case.seed + (31 * case.index);
                waiters = List.length poll_call.Analysis.Registry.pids;
                polls_per_waiter = max 1 repeats;
                signals = 4;
                signal_every = 8;
                arrivals = Workload.Arrivals.Poisson 1.0;
                fuel = 200_000 }
            in
            let inst =
              { Workload.Driver.w_name = entry;
                w_poll = poll_call.Analysis.Registry.program;
                w_signal = signal_call.Analysis.Registry.program }
            in
            let problems = ref [] in
            let checks = ref 0 in
            let problem fmt =
              Fmt.kstr (fun s -> problems := s :: !problems) fmt
            in
            List.iter
              (fun protocol ->
                let model =
                  Flat_sim.Cc { protocol; interconnect = Cc.Bus; ways }
                in
                let r =
                  Workload.Driver.run ~ll_ways:ways ~model ~layout
                    ~n:e.Analysis.Registry.n inst spec
                in
                if not r.Workload.Driver.r_fuel_exhausted then begin
                  incr checks;
                  let bound =
                    cold
                    + (r.Workload.Driver.r_signals * steady)
                    + (r.Workload.Driver.r_polls * refills)
                  in
                  if r.Workload.Driver.r_signaler_rmrs > bound then
                    problem
                      "%s [%s]: signaler measured %d CC RMRs over %d \
                       signals and %d polls, above the proven amortized \
                       budget %d + %d*%d + %d*%dr = %d"
                      entry (Cc.protocol_name protocol)
                      r.Workload.Driver.r_signaler_rmrs
                      r.Workload.Driver.r_signals r.Workload.Driver.r_polls
                      cold r.Workload.Driver.r_signals steady
                      r.Workload.Driver.r_polls refills bound
                end)
              Cc.protocols;
            if !problems <> [] then
              Disagree (String.concat "; " (List.sort_uniq compare !problems))
            else if !checks = 0 then Skip
            else Agree !checks)
        | Some _ | None -> Skip)
      | _ -> Skip))

let cc_invariants (case : Case.t) =
  let rn = Case.elaborate case in
  let run tag = drive_sim ~lean:false ~tag rn case.schedule in
  let dsm = run `Dsm
  and wt = run `Cc_wt
  and wb = run `Cc_wb
  and lfcu = run `Cc_lfcu in
  let strip sim =
    List.map
      (fun (c : History.call) ->
        ( c.History.c_pid,
          c.History.c_label,
          c.History.c_seq,
          c.History.c_started,
          c.History.c_finished,
          c.History.c_result,
          c.History.c_steps ))
      (canon_calls (Sim.calls sim))
  in
  let memory sim =
    List.map
      (fun a -> Memory.get (Sim.memory sim) a)
      (Var.layout_addrs rn.Case.r_layout)
  in
  let base_calls = strip dsm and base_mem = memory dsm in
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (tag, sim) ->
      if Sim.clock sim <> Sim.clock dsm then
        problem "clock depends on the cost model (%s: %d, dsm: %d)"
          (tag_name tag) (Sim.clock sim) (Sim.clock dsm);
      if strip sim <> base_calls then
        problem
          "call responses/timestamps depend on the cost model (%s vs dsm)"
          (tag_name tag);
      if memory sim <> base_mem then
        problem "final memory depends on the cost model (%s vs dsm)"
          (tag_name tag))
    [ (`Cc_wt, wt); (`Cc_wb, wb); (`Cc_lfcu, lfcu) ];
  (* Cache monotonicity.  LFCU never invalidates, so its caches are
     supersets of write-through's at every step and it can only save
     RMRs — for every primitive mix.  Write-back enjoys the same
     superset argument only on read/write histories: a failed comparison
     primitive still acquires exclusive ownership under write-back
     (invalidating copies write-through leaves in place), so with
     CAS/LL/SC in play wb can legitimately out-bill wt — the fuzzer's
     own minimized counterexamples (e.g. seed 1 case 213: two failed
     CASes then an LL) are recorded in docs/MODEL.md. *)
  let rw_only =
    List.for_all
      (fun (s : History.step) ->
        match Op.kind s.History.inv with
        | Op.K_read | Op.K_write -> true
        | Op.K_cas | Op.K_ll | Op.K_sc | Op.K_faa | Op.K_fas | Op.K_tas ->
          false)
      (Sim.steps dsm)
  in
  if rw_only && Sim.total_rmrs wb > Sim.total_rmrs wt then
    problem
      "write-back billed more RMRs than write-through on a read/write-only \
       history (%d > %d)"
      (Sim.total_rmrs wb) (Sim.total_rmrs wt);
  if Sim.total_rmrs lfcu > Sim.total_rmrs wt then
    problem "LFCU billed more RMRs than write-through (%d > %d)"
      (Sim.total_rmrs lfcu) (Sim.total_rmrs wt);
  (* DSM billing is static: a step is an RMR iff the cell's home is not
     the stepping process's own memory module. *)
  List.iter
    (fun (s : History.step) ->
      let expected =
        match s.History.home with
        | Var.Module q -> q <> s.History.pid
        | Var.Shared -> true
      in
      if s.History.rmr <> expected then
        problem "dsm step rmr mis-billed at t=%d (pid %d, %s, home %a)"
          s.History.time s.History.pid
          (Op.show_invocation s.History.inv)
          Var.pp_home s.History.home)
    (Sim.steps dsm);
  if !problems = [] then Agree (7 + List.length base_calls)
  else Disagree (String.concat "; " (List.sort_uniq compare !problems))

let eval o case =
  match o with
  | Lean_vs_full -> lean_vs_full case
  | Sim_vs_flat -> sim_vs_flat case
  | Por_vs_nopor -> por_vs_nopor case
  | Claims_vs_measured -> claims_vs_measured case
  | Amortized_vs_measured -> amortized_vs_measured case
  | Cc_invariants -> cc_invariants case
