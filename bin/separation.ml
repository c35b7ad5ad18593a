(* Command-line interface to the library: run algorithms under cost models,
   unleash the Section 6 adversary, or regenerate experiment tables. *)

open Cmdliner

let model_conv =
  let name m = Core.Scenario.model_tag_name (m :> Core.Scenario.model_tag) in
  let parse s =
    match List.find_opt (fun m -> name m = s) Core.Scenario.named_models with
    | Some m -> Ok (m :> Core.Scenario.model_tag)
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown model %S (%s)" s
             (String.concat "|" (List.map name Core.Scenario.named_models))))
  in
  let print ppf m = Fmt.string ppf (Core.Scenario.model_tag_name m) in
  Arg.conv (parse, print)

let algo_conv =
  let parse s =
    match Core.Experiment.find_algorithm s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown algorithm %S; try `separation list`" s))
  in
  let print ppf (module A : Core.Signaling.POLLING) = Fmt.string ppf A.name in
  Arg.conv (parse, print)

let algo =
  Arg.(
    required
    & opt (some algo_conv) None
    & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc:"Signaling algorithm to run.")

(* [Some] exactly when -m/--model was given, so a command that always
   runs in DSM can refuse another model instead of ignoring it. *)
let model_flag =
  Arg.(
    value
    & opt (some ~none:"dsm" model_conv) None
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Cost model: dsm, cc-wt, cc-wb or cc-lfcu.")

let model = Term.(const (Option.value ~default:`Dsm) $ model_flag)

let n_arg =
  Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

(* Exit 2 with subcommand [cmd]'s name and the reason when a check
   refused its input. *)
let accept ~cmd = function
  | Ok () -> ()
  | Error msg ->
    Fmt.epr "separation: %s: %s@." cmd msg;
    exit 2

(* The Section 6 construction always runs in DSM ([mode] names the flag
   that selects it): another -m is refused, not silently ignored. *)
let dsm_only ~cmd ~mode = function
  | None | Some `Dsm -> ()
  | Some m ->
    accept ~cmd
      (Error
         (Printf.sprintf "%s always runs in the DSM model, got --model %s"
            mode
            (Core.Scenario.model_tag_name m)))

let run_cmd =
  let waiters =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "waiters" ] ~docv:"K"
          ~doc:"Restrict participation to the first $(docv) waiters.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Use a randomized step-level schedule with this seed instead of \
             the deterministic phased schedule.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the history as an ASCII timeline (small runs only).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the outcome as a stable JSON table on stdout.")
  in
  let run (module A : Core.Signaling.POLLING) model n waiters seed trace json =
    accept ~cmd:"run" (Core.Signaling.at_least 1 "-n" n);
    let cfg = Core.Experiment.config_for (module A) ~n in
    let configured = List.length cfg.Core.Signaling.waiters in
    accept ~cmd:"run"
      (match (waiters, seed) with
      | None, _ -> Ok ()
      | Some _, Some _ ->
        Error "--waiters restricts the phased schedule; --seed runs every waiter"
      | Some k, None when k > configured ->
        Error
          (Printf.sprintf "--waiters must be <= %d (%s at -n %d), got %d"
             configured A.name n k)
      | Some k, None -> Core.Signaling.at_least 0 "--waiters" k);
    let o =
      match seed with
      | Some seed -> Core.Scenario.run_random (module A) ~model ~cfg ~seed ()
      | None ->
        let active_waiters =
          Option.map (fun k -> List.init k (fun i -> i + 1)) waiters
        in
        Core.Scenario.run_phased (module A) ~model ~cfg ?active_waiters ()
    in
    let table =
      Core.Observe.outcome_table ~algorithm:A.name
        ~model:(Core.Scenario.model_tag_name model) ~n o
    in
    (* Violations go to stderr so --json stdout stays a pure document. *)
    List.iter
      (fun v -> Fmt.epr "VIOLATION: %a@." Core.Signaling.pp_violation v)
      o.Core.Scenario.violations;
    if json then print_string (Core.Results.to_json table)
    else Core.Report.print (Core.Results.to_report table);
    if trace && not json then begin
      Fmt.pr "@.";
      Smr.Timeline.print o.Core.Scenario.sim
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a signaling algorithm and report RMR accounting.")
    Term.(const run $ algo $ model $ n_arg $ waiters $ seed $ trace $ json)

let explore_cmd =
  let waiters =
    Arg.(
      value & opt int 2
      & info [ "k"; "waiters" ] ~docv:"K" ~doc:"Number of waiters.")
  in
  let polls =
    Arg.(
      value & opt int 2
      & info [ "polls" ] ~docv:"P" ~doc:"Maximum polls per waiter.")
  in
  let signalers =
    Arg.(
      value & opt int 1
      & info [ "signalers" ] ~docv:"S"
          ~doc:
            "Number of signaling processes, pids 0 to $(docv)-1 \
             (algorithms with flexible signaler sets only); the waiters' \
             pids follow.")
  in
  let cap =
    Arg.(
      value & opt int 1_000_000
      & info [ "cap" ] ~docv:"H" ~doc:"Maximum histories to enumerate.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the result as a stable JSON table on stdout.")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ] ~doc:"Disable state-fingerprint deduplication.")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ] ~doc:"Disable sleep-set partial-order reduction.")
  in
  let no_symmetry =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Disable symmetry reduction.  By default the waiters' poll \
             programs are checked for literal interchangeability \
             (identical labels and invocation/response trees, no \
             load-links) and, when they are, dedup keys are \
             canonicalized under waiter-pid permutation — the verdict is \
             unchanged, states visited shrink by up to the factorial of \
             the waiter count.")
  in
  let run algorithm n waiters polls signalers cap json no_dedup no_por
      no_symmetry =
    let open Smr in
    let setup =
      { (Core.Exhaustive.setup algorithm) with
        n; waiters; polls; signalers; cap;
        dedup = not no_dedup; por = not no_por; symmetry = not no_symmetry }
    in
    accept ~cmd:"explore" (Core.Exhaustive.validate setup);
    let prepared = Core.Exhaustive.prepare setup in
    let sym_k = Sim.Pid_set.cardinal prepared.Core.Exhaustive.symmetry in
    if not no_symmetry then
      if sym_k >= 2 then
        Fmt.epr "symmetry: %d interchangeable waiter(s)@." sym_k
      else
        Fmt.epr
          "symmetry: declined (waiter programs not interchangeable); running \
           without reduction@.";
    let r = Core.Exhaustive.search setup prepared in
    Fmt.epr "search took %.2fs@." r.Explore.stats.Explore.wall_s;
    let (module A : Core.Signaling.POLLING) = algorithm in
    if json then
      print_string
        (Core.Results.to_json (Core.Exhaustive.table setup prepared r))
    else begin
      Fmt.pr "%s: %d histories%s, %s; %d states (%d dedup hits, %d orbit \
              hits, %d POR prunes, max depth %d)@."
        A.name r.Explore.histories
        (if r.Explore.truncated > 0 then
           Printf.sprintf " (%d spin-truncated)" r.Explore.truncated
         else "")
        (if r.Explore.complete then "exhaustive" else "capped")
        r.Explore.stats.Explore.states r.Explore.stats.Explore.dedup_hits
        r.Explore.stats.Explore.orbit_hits r.Explore.stats.Explore.por_prunes
        r.Explore.stats.Explore.max_depth;
      Fmt.pr "intern: %d distinct keys, %d collisions, %d resizes, %d slots@."
        r.Explore.stats.Explore.fp_distinct
        r.Explore.stats.Explore.fp_collisions
        r.Explore.stats.Explore.fp_resizes r.Explore.stats.Explore.fp_slots;
      match r.Explore.violation with
      | None -> Fmt.pr "Specification 4.1 holds on every explored history.@."
      | Some sim ->
        Fmt.pr "VIOLATION FOUND:@.";
        List.iter
          (fun v -> Fmt.pr "  %a@." Core.Signaling.pp_violation v)
          (Core.Signaling.check_polling (Sim.calls sim));
        (* The violation machine is the search's move path replayed with
           full history, so the timeline shows every step. *)
        Smr.Timeline.print sim
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate every interleaving of a small \
          configuration and check Specification 4.1.")
    Term.(
      const run $ algo $ n_arg $ waiters $ polls $ signalers $ cap $ json
      $ no_dedup $ no_por $ no_symmetry)

(* Play the Section 6 construction for subcommand [cmd]: what it cannot
   play exits 2, a phase that runs out of fuel exits 1, each with a
   message on stderr. *)
let section6 ~cmd (module A : Core.Signaling.POLLING) ~n ?tracer ?max_rounds
    ?stability_polls () =
  accept ~cmd
    (Core.Adversary.validate (module A) ~n ?max_rounds ?stability_polls ());
  match
    Core.Adversary.run (module A) ~n ?tracer ?max_rounds ?stability_polls ()
  with
  | r -> r
  | exception Core.Adversary.Out_of_fuel { phase; pid } ->
    Fmt.epr "separation: %s: %s: the %s phase ran out of fuel driving p%d@."
      cmd A.name phase pid;
    exit 1

let adversary_cmd =
  let rounds =
    Arg.(
      value & opt int 24
      & info [ "rounds" ] ~docv:"R" ~doc:"Maximum part-1 construction rounds.")
  in
  let polls =
    Arg.(
      value & opt int 3
      & info [ "stability-polls" ] ~docv:"P"
          ~doc:"Solo Poll() calls without an RMR needed to declare a waiter \
                stable (the Def. 6.8 horizon).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print the surviving history as an ASCII timeline (small N).")
  in
  let strategy =
    Arg.(
      value
      & opt (enum [ ("section6", `Section6); ("pct", `Pct); ("walk", `Walk) ])
          `Section6
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Adversary strategy: the deterministic $(b,section6) \
             construction, a $(b,pct) randomized-priority schedule, or a \
             uniform random $(b,walk).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed for the randomized strategies (reproducible per seed).")
  in
  let depth =
    Arg.(
      value & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:"PCT bug depth: number of ordering constraints targeted \
                (default 3).")
  in
  let run (module A : Core.Signaling.POLLING) n rounds polls trace strategy
      seed depth model =
    match strategy with
    | `Section6 ->
      dsm_only ~cmd:"adversary" ~mode:"--strategy section6" model;
      let r =
        section6 ~cmd:"adversary" (module A) ~n ~max_rounds:rounds
          ~stability_polls:polls ()
      in
      Fmt.pr "%a" Core.Adversary.pp_result r;
      if trace then begin
        Fmt.pr "@.Surviving history:@.";
        Smr.Timeline.print r.Core.Adversary.final_sim
      end
    | (`Pct | `Walk) as strategy ->
      accept ~cmd:"adversary" (Core.Signaling.at_least 1 "-n" n);
      let r =
        match strategy with
        | `Pct ->
          Option.iter
            (fun d ->
              accept ~cmd:"adversary" (Core.Signaling.at_least 1 "--depth" d))
            depth;
          Core.Adversary.run_pct (module A) ~n ~seed ?depth ?model ()
        | `Walk -> Core.Adversary.run_walk (module A) ~n ~seed ?model ()
      in
      Fmt.pr "%a" Core.Adversary.pp_random_outcome r;
      if trace then begin
        Fmt.pr "@.History:@.";
        Smr.Timeline.print r.Core.Adversary.ro_outcome.Core.Scenario.sim
      end;
      if r.Core.Adversary.ro_outcome.Core.Scenario.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:
         "Play an adversary against an algorithm: the Section 6 lower-bound \
          construction (DSM model), or a seed-reproducible randomized \
          schedule (PCT priorities or a uniform walk) checked against \
          Specification 4.1.")
    Term.(
      const run $ algo $ n_arg $ rounds $ polls $ trace $ strategy $ seed
      $ depth $ model_flag)

(* `trace` replays a scenario (or the adversary construction) with the
   observability layer attached and dumps the event stream.  Everything on
   stdout is keyed by the logical event clock, so the bytes are identical
   across runs and hosts — CI diffs them against golden files. *)
let trace_cmd =
  let adversary =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Trace the Section 6 adversary construction instead of the \
             phased scenario.  Always runs in the DSM model; another \
             $(b,--model) is refused.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("text", `Text) ])
          `Jsonl
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Stream format: $(b,jsonl) (one JSON object per event), \
             $(b,chrome) (trace_event JSON loadable in Perfetto or \
             chrome://tracing, logical ticks as microseconds, one track \
             per process), or $(b,text) (one line per event).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Also print the metrics table derived from the stream \
             (counters and histograms; wall-time metrics excluded, so the \
             table is deterministic) on stderr.")
  in
  let run (module A : Core.Signaling.POLLING) model n adversary format
      metrics =
    let tr = Obs.Trace.create () in
    if adversary then begin
      dsm_only ~cmd:"trace" ~mode:"--adversary" model;
      ignore (section6 ~cmd:"trace" (module A) ~n ~tracer:tr ())
    end
    else begin
      accept ~cmd:"trace" (Core.Signaling.at_least 1 "-n" n);
      let cfg = Core.Experiment.config_for (module A) ~n in
      let model = Option.value model ~default:`Dsm in
      ignore (Core.Scenario.run_phased (module A) ~model ~cfg ~tracer:tr ())
    end;
    let events = Obs.Trace.events tr in
    print_string
      (match format with
      | `Jsonl -> Obs.Sink_jsonl.to_string events
      | `Chrome -> Obs.Sink_chrome.to_string events
      | `Text -> Obs.Sink_text.to_string events);
    if metrics then
      Fmt.epr "%s"
        (Core.Report.to_string
           (Core.Results.to_report
              (Core.Observe.metrics_table (Obs.Trace.metrics tr))))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Re-run a scenario with the deterministic tracing layer attached \
          and dump the per-RMR event stream (JSONL, Chrome trace_event \
          JSON, or text).")
    Term.(const run $ algo $ model_flag $ n_arg $ adversary $ format $ metrics)

(* The registry-driven table pipeline: `tables` resolves ids against
   Core.Experiment_registry, fans the runs out across domains, and renders
   text, CSV or JSON.  Output order follows the registry (or the requested
   id order), never completion order, so every --jobs level is
   byte-identical. *)

let resolve_specs names =
  match names with
  | [] -> Core.Experiment_registry.all ()
  | names -> (
    match List.map Core.Experiment_registry.find_exn names with
    | specs -> specs
    | exception Invalid_argument msg ->
      Fmt.epr "separation: %s@." msg;
      exit 2)

let run_tables format jobs reduced list names =
  if list then
    List.iter
      (fun (s : Core.Experiment_def.spec) ->
        Fmt.pr "%-4s %s@.     claim: %s@.     shape: %s@." s.Core.Experiment_def.id
          s.Core.Experiment_def.title s.Core.Experiment_def.claim
          s.Core.Experiment_def.shape_note)
      (Core.Experiment_registry.all ())
  else begin
    let specs = resolve_specs names in
    let jobs = match jobs with 0 -> Core.Runner.default_jobs () | j -> max 1 j in
    let size =
      if reduced then Core.Experiment_def.Reduced else Core.Experiment_def.Default
    in
    let metrics = Obs.Metrics.create () in
    let outcomes =
      Obs.Metrics.time metrics "tables_wall_seconds" ~labels:[] (fun () ->
          Core.Runner.run ~jobs ~size specs)
    in
    let tables = Core.Runner.tables outcomes in
    (match format with
    | `Json -> print_string (Core.Results.to_json_many tables)
    | `Csv ->
      List.iter
        (fun t ->
          print_string (Core.Results.to_csv t);
          print_newline ())
        tables
    | `Text ->
      List.iter
        (fun t ->
          Core.Report.print (Core.Results.to_report t);
          print_newline ())
        tables);
    (* Diagnostics go to stderr so stdout stays identical across runs. *)
    Fmt.epr "separation tables: %d experiment(s), %d table(s), jobs=%d, %.2fs@."
      (List.length specs) (List.length tables) jobs
      (Obs.Metrics.total metrics "tables_wall_seconds");
    match Core.Runner.failed_shapes outcomes with
    | [] -> ()
    | failures ->
      List.iter
        (fun (id, why) -> Fmt.epr "separation: %s shape check FAILED: %s@." id why)
        failures;
      exit 1
  end

let tables_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:"Experiment ids (try --list); all when omitted.  Unknown ids \
                are an error.")
  in
  let format =
    Arg.(
      value
      & vflag `Text
          [ (`Json, info [ "json" ] ~doc:"Emit the stable JSON format.");
            (`Csv,
             info [ "csv" ] ~doc:"Emit CSV (header + rows) instead of \
                                  aligned text.") ])
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fan independent experiments (and parameter points within one \
             experiment) out across $(docv) domains.  0 (the default) \
             means Domain.recommended_domain_count.  Results are \
             byte-identical at every level.")
  in
  let reduced =
    Arg.(
      value & flag
      & info [ "reduced" ]
          ~doc:"Use the registry's small reduced parameter sets (the ones \
                CI diffs across --jobs levels) instead of the full tables.")
  in
  let list =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List registered experiments with their claims and \
                expected-shape predicates, then exit.")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Regenerate the claim-derived experiment tables (EXPERIMENTS.md) \
          from the registry; text, CSV or JSON; domain-parallel with --jobs.")
    Term.(const run_tables $ format $ jobs $ reduced $ list $ names)

(* `lint` statically verifies every registered algorithm's declared claims
   (primitive class, spin locality, DSM RMR bound, amortized CC RMR bound,
   write ownership) over its extracted control-flow graph, plus the
   Op.commute differential check behind Explore's POR.  Nonzero exit on
   any violation, so CI can gate on it. *)
let lint_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ALGORITHM"
          ~doc:
            "Algorithm entries to lint (as listed in the report); all \
             non-mutant entries when omitted.  Unknown names are an error.")
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"ALGORITHM"
          ~doc:
            "Lint only this entry (repeatable; combines with positional \
             names).  Handy with $(b,--timing) to profile one expensive \
             unfolding.")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Print the per-entry wall-time histogram \
             ($(b,lint_entry_seconds), labeled by algorithm) to stderr \
             after linting.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the stable JSON tables on stdout.")
  in
  let mutants =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Include the seeded-violation fixtures (expected to fail; used \
             by CI to prove the linter can fail).")
  in
  let fuel =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"NODES"
          ~doc:"Override the extractor's CFG node budget per call.")
  in
  let lint_n =
    Arg.(
      value & opt int 4
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Process count for the signaling entries (locks use their own \
             small fixed counts).  Response domains grow with $(docv), so \
             keep it small.")
  in
  let run n json mutants fuel timing only names =
    (* A signaling entry needs its signaler and at least one waiter. *)
    accept ~cmd:"lint" (Core.Signaling.at_least 2 "-n" n);
    let names = match names @ only with [] -> None | l -> Some l in
    let metrics = Obs.Metrics.create () in
    let reports =
      try Core.Lint_catalog.run ~n ~mutants ?fuel ?names ~metrics ()
      with Invalid_argument msg ->
        Fmt.epr "separation: %s@." msg;
        exit 2
    in
    if timing then
      Fmt.epr "%s"
        (Core.Report.to_string
           (Core.Results.to_report
              (Core.Observe.metrics_table ~timing:true metrics)));
    let commute = Analysis.Commute_check.run () in
    let tables =
      [ Core.Lint_catalog.lint_table reports;
        Core.Lint_catalog.commute_table commute ]
    in
    if json then print_string (Core.Results.to_json_many tables)
    else
      List.iter
        (fun t ->
          Core.Report.print (Core.Results.to_report t);
          print_newline ())
        tables;
    List.iter
      (fun (r : Analysis.Lint.report) ->
        List.iter
          (fun v ->
            Fmt.epr "lint: %s: %s@."
              r.Analysis.Lint.entry.Analysis.Registry.name v)
          (Analysis.Lint.violations r))
      reports;
    List.iter
      (fun c ->
        Fmt.epr "lint: commute: %a@." Analysis.Commute_check.pp_counterexample c)
      commute.Analysis.Commute_check.failures;
    if not (Core.Lint_catalog.all_ok reports commute) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify each algorithm's declared claims (primitive \
          class, local-spin, DSM RMR bound, amortized CC RMR bound, write \
          ownership) over its extracted control-flow graph, and \
          differentially check the POR independence relation.  Exits \
          nonzero on any violation.")
    Term.(const run $ lint_n $ json $ mutants $ fuel $ timing $ only $ names)

(* Shared by `load` and `profile`.  A spec [Workload.Arrivals.validate]
   refuses is a parse error here, like a malformed one. *)
let arrivals_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "bad arrival spec %S (uniform:GAP | poisson:MEAN | \
              bursty:BURST,LULL)"
             s))
    in
    let checked spec =
      match Workload.Arrivals.validate spec with
      | Ok () -> Ok spec
      | Error msg ->
        Error (`Msg (Printf.sprintf "bad arrival spec %S: %s" s msg))
    in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      try
        match kind with
        | "uniform" -> checked (Workload.Arrivals.Uniform (int_of_string rest))
        | "poisson" -> checked (Workload.Arrivals.Poisson (float_of_string rest))
        | "bursty" -> (
          match String.split_on_char ',' rest with
          | [ b; l ] ->
            checked
              (Workload.Arrivals.Bursty
                 { burst = int_of_string b; mean_lull = float_of_string l })
          | _ -> fail ())
        | _ -> fail ()
      with Failure _ -> fail ())
  in
  let print ppf a = Fmt.string ppf (Workload.Arrivals.spec_name a) in
  Arg.conv (parse, print)

(* The flags `load` and `profile` share, defined once: a term yielding the
   scenario grid (every requested k times every requested algorithm,
   under one spec shape) and the domain count to fan it across.  A value
   the grid cannot run exits 2 naming its flag, and a k an algorithm does
   not admit exits 2 naming the limit, before anything runs. *)
let grid_term ~cmd ~verb =
  let algos =
    Arg.(
      value
      & opt_all algo_conv []
      & info [ "a"; "algorithm" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Signaling algorithm(s) to %s (repeatable).  Default: \
                cc-flag, dsm-broadcast and dsm-queue."
               verb))
  in
  let ks =
    Arg.(
      value
      & opt_all int [ 1000 ]
      & info [ "k"; "waiters" ] ~docv:"K"
          ~doc:"Waiters that join over the run (repeatable).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "RNG seed; the whole stdout document is a function of the \
             scenario grid and this seed.")
  in
  let polls =
    Arg.(
      value & opt int 2
      & info [ "polls" ] ~docv:"P" ~doc:"Poll() budget per waiter.")
  in
  let signals =
    Arg.(
      value & opt int 8
      & info [ "signals" ] ~docv:"S" ~doc:"Signal() calls pid 0 issues.")
  in
  let signal_every =
    Arg.(
      value & opt int 0
      & info [ "signal-every" ] ~docv:"TICKS"
          ~doc:
            "Ticks between signal begins; 0 (default) spreads the signals \
             across the arrival span.")
  in
  let arrivals =
    Arg.(
      value
      & opt arrivals_conv (Workload.Arrivals.Poisson 2.0)
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: $(b,uniform:GAP), $(b,poisson:MEAN) or \
             $(b,bursty:BURST,LULL).")
  in
  let crash_prob =
    Arg.(
      value & opt float 0.0
      & info [ "crash-prob" ] ~docv:"P"
          ~doc:"Chance a beginning Poll() crashes mid-call.")
  in
  let leave_prob =
    Arg.(
      value & opt float 0.0
      & info [ "leave-prob" ] ~docv:"P"
          ~doc:"Chance a waiter leaves before exhausting its poll budget.")
  in
  let ways =
    Arg.(
      value & opt int 8
      & info [ "ways" ] ~docv:"W"
          ~doc:"Cache lines per process under a CC model.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"J"
          ~doc:
            "Domains to fan the scenario grid across.  Stdout bytes are \
             identical for every value.")
  in
  let grid algos model ks seed polls signals signal_every arrivals crash_prob
      leave_prob ways jobs =
    accept ~cmd (Core.Signaling.at_least 1 "--ways" ways);
    let algos =
      match algos with
      | [] ->
        List.filter_map Core.Experiment.find_algorithm
          [ "cc-flag"; "dsm-broadcast"; "dsm-queue" ]
      | l -> l
    in
    let scenarios =
      List.concat_map
        (fun k ->
          let spec =
            { Workload.Driver.default_spec with
              seed;
              waiters = k;
              polls_per_waiter = polls;
              signals;
              signal_every =
                (if signal_every = 0 then max 1 (4 * k / max 1 signals)
                 else signal_every);
              arrivals;
              crash_prob;
              leave_early_prob = leave_prob }
          in
          accept ~cmd (Workload.Driver.validate spec);
          List.map
            (fun algorithm ->
              let sc = Core.Loadgen.scenario ~ways ~algorithm ~model spec in
              accept ~cmd (Core.Loadgen.validate sc);
              sc)
            algos)
        ks
    in
    (scenarios, max 1 jobs)
  in
  Term.(
    const grid $ algos $ model $ ks $ seed $ polls $ signals $ signal_every
    $ arrivals $ crash_prob $ leave_prob $ ways $ jobs)

(* Open the file an output flag names before any work starts, so a path
   that cannot be written exits 2 before stdout is printed. *)
let open_output ~cmd ~flag path =
  try open_out path
  with Sys_error msg ->
    Fmt.epr "separation: %s: %s: %s@." cmd flag msg;
    exit 2

(* `load` runs the open-system workload driver over the flat engine: waiters
   arrive by a seeded arrival process, poll a few times and leave (or crash),
   while pid 0 signals on a cadence.  Stdout carries only seed-determined
   figures — CI diffs it across runs and --jobs levels — while wall-clock
   throughput goes to stderr and, when asked, to the --perf-out JSON.  A
   row that reads spec_ok no is a finding: exit 1 once everything is
   printed. *)
let load_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the stable JSON table on stdout.")
  in
  let perf_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "perf-out" ] ~docv:"FILE"
          ~doc:
            "Also write wall-clock figures (states/sec, bytes/process) as \
             JSON to $(docv).  Never byte-stable; keep it out of diffs.")
  in
  let run (scenarios, jobs) json perf_out =
    let perf_out =
      Option.map (open_output ~cmd:"load" ~flag:"--perf-out") perf_out
    in
    let runs =
      Core.Parallel.map ~jobs
        (fun sc ->
          let r, t = Core.Loadgen.timed sc in
          (sc, r, t))
        scenarios
    in
    let table = Core.Loadgen.table (List.map (fun (sc, r, _) -> (sc, r)) runs) in
    if json then print_string (Core.Results.to_json table)
    else Core.Report.print (Core.Results.to_report table);
    (* Wall-clock figures: stderr and --perf-out only. *)
    List.iter
      (fun (sc, (r : Workload.Driver.report), (t : Core.Loadgen.timing)) ->
        let (module A : Core.Signaling.POLLING) = sc.Core.Loadgen.sc_algorithm in
        Fmt.epr
          "load: %s/%s k=%d: %d steps in %.2fs (%.0f states/sec, %d \
           bytes/process)%s%s@."
          A.name r.Workload.Driver.r_model
          sc.Core.Loadgen.sc_spec.Workload.Driver.waiters t.Core.Loadgen.steps
          t.Core.Loadgen.elapsed_s t.Core.Loadgen.states_per_sec
          t.Core.Loadgen.bytes_per_process
          (if r.Workload.Driver.r_fuel_exhausted then " FUEL EXHAUSTED" else "")
          (if r.Workload.Driver.r_spec_ok then "" else " SPEC 4.1 VIOLATED"))
      runs;
    Option.iter
      (fun oc ->
        output_string oc
          (Core.Loadgen.perf_json (List.map (fun (sc, _, t) -> (sc, t)) runs));
        close_out oc)
      perf_out;
    if List.exists (fun (_, r, _) -> not r.Workload.Driver.r_spec_ok) runs then
      exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive an open-system heavy-traffic workload (arrivals, churn, \
          crashes) over the flat simulation engine and report streaming \
          RMR/latency accounting; scales to k = 10^6 waiters.  Exits 1 when \
          a run violates Specification 4.1 (spec_ok no).")
    Term.(const run $ grid_term ~cmd:"load" ~verb:"drive" $ json $ perf_out)

(* `profile` is `load` with the counter planes armed: the same driver and
   seed stream, plus deterministic per-cell / per-pid / per-pc RMR
   attribution tables and an optional Chrome export of coherence traffic
   (one lane per cell).  Stdout is a function of the flags alone, diffed
   by CI across runs and --jobs levels. *)
let profile_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows kept in the ranked hot-cell and per-pid views.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the stable JSON tables on stdout.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Emit RFC-4180 CSV tables on stdout.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Also write the first scenario's coherence traffic as a Chrome \
             trace (chrome://tracing / Perfetto; one lane per cell) to \
             $(docv).")
  in
  let chrome_cap =
    Arg.(
      value & opt int 10_000
      & info [ "chrome-cap" ] ~docv:"N"
          ~doc:
            "Transactions recorded for --chrome-out; overflow is counted \
             on stderr, not recorded.")
  in
  let run (scenarios, jobs) top json csv chrome_out chrome_cap =
    accept ~cmd:"profile" (Core.Signaling.at_least 0 "--top" top);
    accept ~cmd:"profile" (Core.Signaling.at_least 0 "--chrome-cap" chrome_cap);
    let chrome_out =
      Option.map (open_output ~cmd:"profile" ~flag:"--chrome-out") chrome_out
    in
    let indexed = List.mapi (fun i sc -> (i, sc)) scenarios in
    let runs =
      Core.Parallel.map ~jobs
        (fun (i, sc) ->
          let record_cells =
            if i = 0 && Option.is_some chrome_out then Some chrome_cap else None
          in
          (sc, Core.Profile.run ?record_cells sc))
        indexed
    in
    let tables =
      List.concat_map (fun (sc, r) -> Core.Profile.tables ~top sc r) runs
    in
    if json then print_string (Core.Results.to_json_many tables)
    else if csv then
      List.iteri
        (fun i t ->
          if i > 0 then print_newline ();
          print_string (Core.Results.to_csv t))
        tables
    else
      List.iter
        (fun t ->
          Core.Report.print (Core.Results.to_report t);
          print_newline ())
        tables;
    match (chrome_out, runs) with
    | Some oc, (_, r) :: _ ->
      output_string oc (Core.Profile.chrome_trace r);
      close_out oc;
      if r.Core.Profile.p_cells_dropped > 0 then
        Fmt.epr "profile: chrome export capped: %d transactions dropped@."
          r.Core.Profile.p_cells_dropped
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an open-system workload with counter planes armed and report \
          where the RMRs land: per-cell hot-cell ranking (with the \
          signaler's share), per-pid attribution, and per-program-counter \
          breakdowns — the observable half of the CC/DSM separation.  \
          Byte-deterministic for a fixed seed, at any --jobs.")
    Term.(
      const run $ grid_term ~cmd:"profile" ~verb:"profile" $ top $ json $ csv
      $ chrome_out $ chrome_cap)

(* `fuzz` streams seeded random cases through the differential oracle
   lattice.  Everything on stdout is a function of the flags alone — the
   CI diffs two runs byte-for-byte — and any disagreement is shrunk to a
   minimal case whose replay line is printed on stderr. *)
let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed.  Case $(i,i) is a function of (seed, $(i,i)) alone, \
             so any case replays in isolation via --only.")
  in
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Number of case indices to stream.")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ] ~docv:"UNITS"
          ~doc:
            "Deterministic work-unit cap (schedule decisions times oracle \
             weight); the run stops once spent, independent of wall time.")
  in
  let oracle =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Restrict to the named oracle (repeatable): lean-vs-full, \
             sim-vs-flat, por-vs-nopor, claims-vs-measured, \
             amortized-vs-measured, cc-invariants.  All six when omitted.")
  in
  let mutants =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "Draw lint-entry cases from the seeded mutant fixtures instead \
             of the honest catalog; every mutant reached must surface as a \
             finding (CI's expected-failure leg).")
  in
  let only =
    Arg.(
      value & opt (some int) None
      & info [ "only" ] ~docv:"IDX"
          ~doc:"Replay exactly one case index from this seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the stable JSON table on stdout.")
  in
  let coverage_new_only =
    Arg.(
      value & flag
      & info [ "coverage-new-only" ]
          ~doc:
            "Evaluate the oracle lattice only on cases whose counter-plane \
             behavior signature is new this run; duplicate buckets still \
             count toward coverage but cost no oracle work.")
  in
  let run seed cases budget oracle_names mutants only json coverage_new_only =
    let nonneg name v = accept ~cmd:"fuzz" (Core.Signaling.at_least 0 name v) in
    nonneg "--cases" cases;
    Option.iter (nonneg "--budget") budget;
    Option.iter (nonneg "--only") only;
    let oracles =
      match oracle_names with
      | [] -> Fuzz.Oracles.all
      | names ->
        List.map
          (fun s ->
            match Fuzz.Oracles.of_name s with
            | Some o -> o
            | None ->
              Fmt.epr "separation: unknown oracle %S@." s;
              exit 2)
          names
    in
    let report =
      Fuzz.Harness.run
        { Fuzz.Harness.seed; cases; budget; oracles; mutants; only;
          coverage_new_only }
    in
    if json then
      print_string
        (Core.Results.to_json_many
           [ report.Fuzz.Harness.table; report.Fuzz.Harness.coverage ])
    else begin
      Core.Report.print (Core.Results.to_report report.Fuzz.Harness.table);
      print_newline ();
      Core.Report.print (Core.Results.to_report report.Fuzz.Harness.coverage)
    end;
    (* Findings go to stderr so --json stdout stays a pure document. *)
    List.iter
      (fun f -> Fmt.epr "%a@." Fuzz.Harness.pp_finding f)
      report.Fuzz.Harness.findings;
    if report.Fuzz.Harness.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Stream seeded random cases (programs, catalog scripts, lint \
          entries) through the differential oracle lattice: lean vs full \
          machine, persistent vs flat engine, POR vs literal exploration, \
          static claims vs measured RMRs, proven amortized CC bounds vs \
          the workload driver's measurements, and the CC cost-model \
          invariants.  \
          Shrinks any disagreement to a minimal replayable case and exits \
          nonzero.")
    Term.(
      const run $ seed $ cases $ budget $ oracle $ mutants $ only $ json
      $ coverage_new_only)

let list_cmd =
  let run () =
    Fmt.pr "Experiments:@.";
    List.iter
      (fun (s : Core.Experiment_def.spec) ->
        Fmt.pr "  %-4s %s@." s.Core.Experiment_def.id s.Core.Experiment_def.title)
      (Core.Experiment_registry.all ());
    Fmt.pr "@.Algorithms:@.";
    List.iter
      (fun (module A : Core.Signaling.POLLING) ->
        Fmt.pr "  %-18s [%s]  %s@." A.name
          (String.concat ", "
             (List.map
                (Fmt.str "%a" Smr.Op.pp_primitive_class)
                A.primitives))
          A.description)
      Core.Experiment.polling_algorithms;
    Fmt.pr "@.Models: dsm, cc-wt, cc-wb, cc-lfcu@.";
    Fmt.pr "@.Locks (E7):@.";
    List.iter
      (fun (module L : Sync.Mutex_intf.LOCK) -> Fmt.pr "  %s@." L.name)
      Core.Experiment.locks
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List algorithms, cost models and locks.")
    Term.(const run $ const ())

let () =
  let doc =
    "Reproduction of Golab's CC/DSM amortized-RMR complexity separation \
     (PODC 2011)"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "separation" ~version:"1.0.0" ~doc)
          [ run_cmd; adversary_cmd; explore_cmd; trace_cmd; tables_cmd;
            lint_cmd; load_cmd; profile_cmd; fuzz_cmd; list_cmd ]))
