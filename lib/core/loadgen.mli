(** Open-system load generation: catalog algorithms under the flat engine
    and the workload driver.  Shared by `separation load`, E14/E15 and the
    determinism tests. *)

type scenario = {
  sc_algorithm : (module Signaling.POLLING);
  sc_model : Scenario.model_tag;
  sc_ways : int;
  sc_ll_ways : int;
  sc_spec : Workload.Driver.spec;
}

val scenario :
  ?ways:int ->
  ?ll_ways:int ->
  algorithm:(module Signaling.POLLING) ->
  model:Scenario.model_tag ->
  Workload.Driver.spec ->
  scenario

val flat_model : ways:int -> Scenario.model_tag -> Smr.Flat_sim.model_spec

val config : scenario -> Signaling.config
(** The roles the driver plays: pid 0 signals and pids [1..k] poll, for
    the spec's [k] waiters, on [k + 1] processes.  Equal to
    {!Algorithms.config_for} at [n = k + 1] for every catalog algorithm
    but the single-waiter one, which that narrows to pid 1. *)

val validate : scenario -> (unit, string) result
(** Refuses, with {!Signaling.validate_config}'s message, a {!config} the
    algorithm's flexibility does not admit (more waiters than a
    single-waiter algorithm supports). *)

val prepare :
  scenario -> Workload.Driver.instance * Smr.Var.layout * int
(** Instantiate the scenario's algorithm on {!config}: the driver
    instance, the frozen memory layout, and the machine size
    ([waiters + 1]).  Deterministic; {!run} is [prepare] plus
    {!Workload.Driver.run}.  Exposed so callers that arm observability
    hooks (the profiler sizes counter planes from the layout) share the
    exact instantiation path.  Raises [Invalid_argument] on a scenario
    {!validate} refuses. *)

val run :
  ?counters:Obs.Counters.t ->
  ?on_cache:Smr.Flat_sim.cache_cb ->
  scenario ->
  Workload.Driver.report
(** Deterministic: the report is a function of the scenario alone.
    [counters] / [on_cache] pass through to the driver's flat engine. *)

type timing = {
  elapsed_s : float;
  states_per_sec : float;
  steps : int;
  bytes_per_process : int;
}

val timed : scenario -> Workload.Driver.report * timing
(** Like {!run}, with a wall clock around it.  Timing figures must stay out
    of deterministic output (stderr and [--perf-out] only). *)

val table :
  ?title:string -> (scenario * Workload.Driver.report) list -> Results.table
(** One row per scenario; byte-deterministic for a fixed scenario list. *)

val perf_json : (scenario * timing) list -> string
(** The [--perf-out] sidecar (wall-clock figures; never diffed). *)
