(* The five benchmark workloads, each driven from outside through the
   layers' public functions: set-up, one main call, and the checks on its
   simulated outputs.

   One call of [run] is one repetition.  The suite runs every repetition
   in a fresh child process, as a CLI invocation does, so modelled caches
   and the heap start empty each time and no run is warmed up.  With a
   span recorder, the same repetition is the traced run: coarse spans
   around set-up and the main call, hot callbacks aggregated into them
   (see {!Span}). *)

open Smr

type size = Full | Smoke

type outcome = {
  setup_s : float;  (** host time of the set-up steps *)
  wall_s : float;  (** host time of the main call *)
  minor_words : float;  (** allocated inside the main call *)
  steps : int;  (** simulated steps of the main call; a state for explore *)
  main_span : string;
  sim : (string * int) list;
      (** simulated outputs: deterministic, so equal across repetitions
          and between the traced and untraced runs *)
  checks : (string * bool) list;
  layer : (string * float) list;
      (** per-layer counts read from the layers' own results *)
}

let names = [ "explore-sym"; "explore-plain"; "load-cc"; "load-dsm"; "adversary" ]

let algorithm name = Option.get (Core.Experiment.find_algorithm name)

let timed_s f =
  let t0 = Obs.Clock.now_s () in
  let r = f () in
  (r, Obs.Clock.elapsed_s ~since:t0)

(* The main call: host time and minor words around it, inside its span. *)
let main trace name f =
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_s () in
  let r = Span.with_ trace name f in
  let wall = Obs.Clock.elapsed_s ~since:t0 in
  (r, wall, Gc.minor_words () -. w0)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- explore-sym / explore-plain --- *)

let explore trace ~algorithm:name ~n ~waiters ~polls ~expect_symmetry =
  let m = algorithm name in
  let traced = trace <> None in
  let waiter_pids = List.init waiters (fun i -> i + 1) in
  let (inst, layout, symmetry), setup_s =
    timed_s (fun () ->
        Span.with_ trace "setup" (fun () ->
            let ctx = Var.Ctx.create () in
            let cfg =
              Core.Signaling.config ~n ~waiters:waiter_pids ~signalers:[ 0 ]
            in
            let inst =
              Span.with_ trace "signaling.instantiate" (fun () ->
                  Core.Signaling.instantiate m ctx cfg)
            in
            let layout =
              Span.with_ trace "var.freeze" (fun () -> Var.Ctx.freeze ctx)
            in
            let values =
              Span.with_ trace "lint.value_domain" (fun () ->
                  Analysis.Lint.value_domain ~n ~layout)
            in
            let symmetry =
              Span.with_ trace "explore.detect_symmetry" (fun () ->
                  Explore.detect_symmetry ~values
                    (List.map
                       (fun w ->
                         ( w,
                           (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w)
                         ))
                       waiter_pids))
            in
            (inst, layout, symmetry)))
  in
  let program p = if traced then Span.wrap_program p else p in
  let script s =
    if traced then fun sim p -> Span.timed Span.Script (fun () -> s sim p) ()
    else s
  in
  let scripts =
    ( 0,
      script
        (Explore.of_list
           [ (Core.Signaling.signal_label, program (inst.Core.Signaling.i_signal 0)) ])
    )
    :: List.map
         (fun w ->
           ( w,
             script
               (Explore.repeat ~limit:polls
                  ~until:(fun r -> r = 1)
                  (Core.Signaling.poll_label, program (inst.Core.Signaling.i_poll w)))
           ))
         waiter_pids
  in
  let property =
    if traced then Span.timed Span.Polling_ok Core.Signaling.polling_ok
    else Core.Signaling.polling_ok
  in
  let commute =
    if traced then Some (fun a b -> Span.timed Span.Commute (Op.commute a) b)
    else None
  in
  let r, wall_s, minor_words =
    main trace "explore.check" (fun () ->
        Explore.check ?commute ~split_depth:0 ~symmetry ~layout
          ~model:(Cost_model.dsm layout) ~n ~scripts ~property ())
  in
  let s = r.Explore.stats in
  let sym = Sim.Pid_set.cardinal symmetry in
  let f = float_of_int in
  { setup_s; wall_s; minor_words; steps = s.Explore.states;
    main_span = "explore.check";
    sim =
      [ ("histories", r.Explore.histories); ("truncated", r.Explore.truncated);
        ("states", s.Explore.states); ("dedup_hits", s.Explore.dedup_hits);
        ("por_prunes", s.Explore.por_prunes); ("orbit_hits", s.Explore.orbit_hits);
        ("max_depth", s.Explore.max_depth); ("fp_distinct", s.Explore.fp_distinct);
        ("fp_collisions", s.Explore.fp_collisions);
        ("fp_resizes", s.Explore.fp_resizes); ("fp_slots", s.Explore.fp_slots);
        ("symmetry", sym) ];
    checks =
      [ ("complete", r.Explore.complete);
        ("no_violation", r.Explore.violation = None);
        (Printf.sprintf "symmetry=%d" expect_symmetry, sym = expect_symmetry) ];
    layer =
      [ ("explore.states", f s.Explore.states);
        ("explore.max_depth", f s.Explore.max_depth);
        ("explore.histories", f r.Explore.histories);
        ("explore.dedup_hits", f s.Explore.dedup_hits);
        ("explore.dedup_ratio", ratio s.Explore.dedup_hits s.Explore.states);
        ("explore.por_prunes", f s.Explore.por_prunes);
        ("explore.por_ratio", ratio s.Explore.por_prunes s.Explore.states);
        ("explore.orbit_hits", f s.Explore.orbit_hits);
        ("explore.orbit_share", ratio s.Explore.orbit_hits s.Explore.dedup_hits);
        ("fp_intern.distinct", f s.Explore.fp_distinct);
        ("fp_intern.collisions", f s.Explore.fp_collisions);
        ("fp_intern.resizes", f s.Explore.fp_resizes);
        ("fp_intern.occupancy", ratio s.Explore.fp_distinct s.Explore.fp_slots) ] }

(* --- load-cc / load-dsm --- *)

let signals = 8

let load trace ~seed ~algorithm:name ~model ~k ~crash_prob ~leave_early_prob
    ~signaler_rmrs_per_signal =
  let m = algorithm name in
  let traced = trace <> None in
  let spec =
    { Workload.Driver.default_spec with
      seed;
      waiters = k;
      polls_per_waiter = 2;
      signals;
      signal_every = max 1 (4 * k / signals);
      arrivals = Workload.Arrivals.Poisson 2.0;
      crash_prob;
      leave_early_prob }
  in
  let sc = Core.Loadgen.scenario ~ways:8 ~algorithm:m ~model spec in
  let (winst, layout, n), setup_s =
    timed_s (fun () ->
        Span.with_ trace "setup" (fun () ->
            Span.with_ trace "loadgen.prepare" (fun () -> Core.Loadgen.prepare sc)))
  in
  let counters =
    if traced then Some (Obs.Counters.create ~n ~size:(Var.layout_size layout) ())
    else None
  in
  let winst =
    if not traced then winst
    else
      let build f = Span.timed Span.Program_build (fun p -> Span.wrap_program (f p)) in
      { winst with
        Workload.Driver.w_poll = build winst.Workload.Driver.w_poll;
        w_signal = build winst.Workload.Driver.w_signal }
  in
  let r, wall_s, minor_words =
    main trace "driver.run" (fun () ->
        Workload.Driver.run ~ll_ways:sc.Core.Loadgen.sc_ll_ways ?counters
          ~model:(Core.Loadgen.flat_model ~ways:sc.Core.Loadgen.sc_ways model)
          ~layout ~n winst spec)
  in
  (* [Loadgen.prepare] instantiates internally; the traced run times the
     same instantiation once more on its own, after the main call. *)
  if traced then
    Span.with_ trace "signaling.instantiate" (fun () ->
        ignore
          (Core.Signaling.instantiate m (Var.Ctx.create ())
             (Core.Experiment.config_for m ~n)));
  let open Workload.Driver in
  let counter cls =
    match counters with
    | Some c -> float_of_int (Obs.Counters.total c cls)
    | None -> 0.0
  in
  { setup_s; wall_s; minor_words; steps = r.r_steps; main_span = "driver.run";
    sim =
      [ ("waiters", r.r_waiters); ("left", r.r_left); ("left_early", r.r_left_early);
        ("crashes", r.r_crashes); ("polls", r.r_polls);
        ("polls_true", r.r_polls_true); ("signals", r.r_signals);
        ("clock", r.r_clock); ("steps", r.r_steps); ("rmrs", r.r_total_rmrs);
        ("messages", r.r_total_messages); ("signaler_rmrs", r.r_signaler_rmrs) ];
    checks =
      [ ("spec_ok", r.r_spec_ok); ("fuel_left", not r.r_fuel_exhausted);
        (Printf.sprintf "signals=%d" signals, r.r_signals = signals);
        ( Printf.sprintf "signaler_rmrs=%d" (signaler_rmrs_per_signal * signals),
          r.r_signaler_rmrs = signaler_rmrs_per_signal * signals ) ];
    layer =
      [ ("driver.steps", float_of_int r.r_steps);
        ("flat_sim.rmr", counter Obs.Counters.Rmr);
        ("flat_sim.local", counter Obs.Counters.Local);
        ("flat_sim.fetch", counter Obs.Counters.Fetch);
        ("flat_sim.invalidate", counter Obs.Counters.Invalidate);
        ("flat_sim.update", counter Obs.Counters.Update);
        ("flat_sim.crash", counter Obs.Counters.Crash);
        ( "flat_sim.messages",
          match counters with
          | Some c -> float_of_int (Obs.Counters.total_messages c)
          | None -> 0.0 ) ] }

(* --- adversary --- *)

(* The algorithm with every Signal()/Poll() program's continuations timed:
   [Adversary.run] instantiates the algorithm itself, so its programs can
   only be reached through the module. *)
let traced_module (module A : Core.Signaling.POLLING) : (module Core.Signaling.POLLING) =
  (module struct
    include A

    let signal t p = Span.wrap_program (A.signal t p)
    let poll t p = Span.wrap_program (A.poll t p)
  end)

let adversary trace ~n =
  let m = algorithm "dsm-broadcast" in
  (* [Adversary.run] starts by instantiating the algorithm with every pid
     both waiter and signaler; that instantiation, timed on its own, is
     the workload's set-up (the main call repeats it internally). *)
  let (), setup_s =
    timed_s (fun () ->
        Span.with_ trace "setup" (fun () ->
            let ctx = Var.Ctx.create () in
            let pids = List.init n Fun.id in
            let cfg = Core.Signaling.config ~n ~waiters:pids ~signalers:pids in
            ignore
              (Span.with_ trace "signaling.instantiate" (fun () ->
                   Core.Signaling.instantiate m ctx cfg));
            ignore (Span.with_ trace "var.freeze" (fun () -> Var.Ctx.freeze ctx))))
  in
  let m = if trace <> None then traced_module m else m in
  let r, wall_s, minor_words =
    main trace "adversary.run" (fun () -> Core.Adversary.run m ~n ())
  in
  let open Core.Adversary in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.rounds in
  let chase f = match r.chase with Some c -> f c | None -> 0 in
  let erasures =
    sum (fun s -> s.erased_conflicts + s.erased_writes) + chase (fun c -> c.chase_erased)
  in
  let failures =
    sum (fun s -> s.erase_failures) + chase (fun c -> c.chase_erase_failures)
  in
  let signaler_rmrs = chase (fun c -> c.signaler_rmrs) in
  let steps =
    List.fold_left
      (fun acc p -> acc + Sim.step_count r.final_sim p)
      0 (List.init n Fun.id)
  in
  let f = float_of_int in
  { setup_s; wall_s; minor_words; steps; main_span = "adversary.run";
    sim =
      [ ("rounds", List.length r.rounds); ("stable_waiters", r.stable_waiters);
        ("finished", r.finished); ("participants", r.participants);
        ("total_rmrs", r.total_rmrs); ("signaler", chase (fun c -> c.signaler));
        ("signaler_rmrs", signaler_rmrs); ("signaler_steps", chase (fun c -> c.signaler_steps));
        ("erasures", erasures); ("erase_failures", failures);
        ("clock", Sim.clock r.final_sim); ("steps", steps) ];
    checks =
      [ ("participants=1", r.participants = 1);
        (Printf.sprintf "signaler_rmrs=%d" (n - 1), signaler_rmrs = n - 1);
        ("no_spec_violation", not r.spec_violated) ];
    layer =
      [ ("adversary.rounds", f (List.length r.rounds));
        ("adversary.erasures", f erasures);
        ("adversary.erase_failures", f failures);
        ("adversary.erase_success_ratio", ratio erasures (erasures + failures));
        ("adversary.participants", f r.participants);
        ("adversary.signaler_rmrs", f signaler_rmrs) ] }

(* --- the table --- *)

(* Only the load workloads consume the seed: the explorer and the
   adversary are deterministic searches over a fixed configuration. *)
let run ?trace ~size ~seed name =
  let full = size = Full in
  match name with
  | "explore-sym" ->
    let waiters = if full then 5 else 3 in
    explore trace ~algorithm:"cc-flag" ~n:(waiters + 1) ~waiters ~polls:2
      ~expect_symmetry:waiters
  | "explore-plain" ->
    let waiters = if full then 3 else 2 in
    explore trace ~algorithm:"dsm-broadcast" ~n:(waiters + 1) ~waiters ~polls:3
      ~expect_symmetry:0
  | "load-cc" ->
    load trace ~seed ~algorithm:"cc-flag" ~model:`Cc_wt
      ~k:(if full then 500_000 else 1_000)
      ~crash_prob:0.0 ~leave_early_prob:0.0 ~signaler_rmrs_per_signal:1
  | "load-dsm" ->
    let k = if full then 200_000 else 1_000 in
    load trace ~seed ~algorithm:"dsm-broadcast" ~model:`Dsm ~k ~crash_prob:0.01
      ~leave_early_prob:0.1 ~signaler_rmrs_per_signal:k
  | "adversary" -> adversary trace ~n:(if full then 1024 else 64)
  | _ -> invalid_arg ("unknown workload " ^ name)
