(** The open-system workload driver.

    A closed scenario fixes its participants up front; the E14/E15
    experiments need the opposite: an open system where waiters join
    according to an arrival process, perform a few Poll() calls and leave
    — possibly crashing mid-call — while a signaler (pid 0) issues
    Signal() on its own cadence.  The driver runs that loop over
    {!Smr.Flat_sim} with streaming accounting only: per-call RMR and
    latency figures feed Welford accumulators ({!Stats}), the
    Specification 4.1 verdict is checked on the fly against the earliest
    signal extents, and nothing whose size grows with the run is ever
    materialized — which is what lets k reach 10^6.

    Everything observable is a function of the spec (seed included): no
    wall clock, no [Random], no hash-table iteration. *)

type instance = {
  w_name : string;
  w_poll : Smr.Op.pid -> Smr.Op.value Smr.Program.t;
  w_signal : Smr.Op.pid -> Smr.Op.value Smr.Program.t;
}
(** The driver's view of a signaling algorithm: fresh program values for
    one Poll() or Signal() by the given process.  Structural (not a
    [Signaling.POLLING] instance) so this library depends only on [smr];
    [Core.Loadgen] adapts instantiated catalog algorithms to it. *)

type spec = {
  seed : int;
  waiters : int;  (** waiters that join over the run (pids 1..waiters) *)
  polls_per_waiter : int;
  signals : int;  (** Signal() calls the signaler issues *)
  signal_every : int;  (** ticks between consecutive signal begins *)
  arrivals : Arrivals.spec;
  crash_prob : float;  (** chance a beginning poll will crash mid-call *)
  leave_early_prob : float;  (** chance a waiter leaves between its polls *)
  fuel : int;  (** step budget; exceeded -> [r_fuel_exhausted] *)
}

val default_spec : spec
(** Seed 1, 100 waiters x 2 polls, 8 signals every 64 ticks, Poisson
    arrivals, no churn. *)

type report = {
  r_algorithm : string;
  r_model : string;
  r_waiters : int;  (** waiters that joined *)
  r_left : int;  (** waiters that terminated cleanly *)
  r_left_early : int;  (** of those, waiters that cut their budget short *)
  r_crashes : int;  (** calls interrupted by a crash *)
  r_polls : int;  (** completed Poll() calls *)
  r_polls_true : int;
  r_signals : int;  (** completed Signal() calls *)
  r_clock : int;
  r_steps : int;
  r_total_rmrs : int;
  r_total_messages : int;
  r_signaler_rmrs : int;
  r_poll_rmrs : Stats.summary;
  r_signal_rmrs : Stats.summary;
  r_poll_latency : Stats.summary;
  r_signal_latency : Stats.summary;
  r_spec_ok : bool;  (** streaming Specification 4.1 verdict *)
  r_fuel_exhausted : bool;
  r_bytes_per_process : int;
}

val rmrs_per_signal : report -> float
(** Signaler RMRs amortized over completed signals — the paper's
    separation figure (cc-flag holds 1.00; dsm-broadcast pays k). *)

val rmrs_per_op : report -> float
(** Total RMRs amortized over every completed call. *)

val validate : spec -> (unit, string) result
(** [Error] with a reason naming the `load`/`profile` flag behind the
    field: negative [waiters], [signals] or [signal_every], fewer than one
    poll per waiter, a [crash_prob] or [leave_early_prob] outside [0, 1],
    or arrivals {!Arrivals.validate} refuses. *)

val run :
  ?ll_ways:int ->
  ?counters:Obs.Counters.t ->
  ?on_cache:Smr.Flat_sim.cache_cb ->
  model:Smr.Flat_sim.model_spec ->
  layout:Smr.Var.layout ->
  n:int ->
  instance ->
  spec ->
  report
(** Run the open system to completion (all waiters drained, all signals
    issued) or until [fuel] runs out.  [n] must cover the signaler plus
    every waiter ([n >= waiters + 1]); raises [Invalid_argument]
    otherwise, and on a spec {!validate} refuses.  [counters] and
    [on_cache] are handed to the underlying {!Smr.Flat_sim.create}
    unchanged — arm counter planes to get per-cell / per-pid / per-pc
    attribution of the run at no steady-state allocation (group
    assignment is the caller's; the profiler uses group 0 = signaler,
    group 1 = waiters). *)
