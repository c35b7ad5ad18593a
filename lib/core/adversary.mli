(** The Section 6 lower-bound construction, mechanized.

    Plays the proof of Theorem 6.2 against a concrete algorithm: part 1
    (Lemma 6.10) drives all N processes as waiters through rounds of
    advance-to-next-RMR, conflict-graph erasure (the Turán step), read
    application, and roll-forward/erasing disposal of pending writes, until
    every surviving waiter is stable (Def. 6.8 — busy-waiting on local
    memory); part 2 (Lemma 6.13) picks a signaler whose module no other
    process has written and erases each stable waiter the instant the
    signaler is about to see or touch it — the wild goose chase.

    Erasure is trace replay with response verification (Lemma 6.7): it
    succeeds exactly when the victim was invisible.  Against reads/writes
    algorithms every erasure succeeds and the signaler's RMRs land on a
    history with O(1) participants — amortized cost Θ(N).  Against F&I
    algorithms the erasures diverge (each registrant is visible through the
    counter), are reported as blocked, and the amortized cost stays flat:
    the mechanized witness of why Theorem 6.2 excludes fetch-and-phi
    primitives while Corollary 6.14 extends it over CAS and LL/SC. *)

open Smr

type round_stat = {
  round : int;
  active_before : int;
  stable : int;  (** actives already stable at classification time *)
  poised : int;  (** unstable actives advanced to a pending RMR *)
  erased_conflicts : int;
  erased_writes : int;
  rolled_forward : Op.pid option;
  active_after : int;
  max_active_rmrs : int;
      (** property 3 of Def. 6.9: at most [round + 1] for every active *)
  regular : bool;  (** Def. 6.6 over the history so far *)
  erase_failures : int;
      (** part-1 erasures that diverged and were skipped (F&I visibility) *)
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
  stable_waiters : int;
  finished : int;  (** rolled-forward processes (|Fin|) *)
  part1_regular : bool;
  chase : chase_stat option;
      (** [None] when part 1 never stabilized every waiter within the round
          budget *)
  participants : int;  (** in the final (post-erasure) history *)
  total_rmrs : int;
  amortized : float;
  spec_violated : bool;
      (** a surviving stable waiter polled false after Signal() completed —
          the Lemma 6.13 contradiction; never set for a correct algorithm *)
  spurious_true : bool;
  final_sim : Smr.Sim.t;
      (** the machine holding the surviving (post-erasure) history *)
}

exception Out_of_fuel of { phase : string; pid : Op.pid }
(** Raised by {!run} when one of its phases drives process [pid] for
    [fuel] steps without reaching the point it waits for.  [phase] is
    ["advance to RMR"], ["roll forward"] or ["goose chase"].  The chase
    runs out against an algorithm whose Signal() awaits a waiter the
    chase erased (dsm-fixed-term). *)

val validate :
  (module Signaling.POLLING) ->
  n:int ->
  ?stability_polls:int ->
  ?max_rounds:int ->
  unit ->
  (unit, string) Stdlib.result
(** Rejects, with a message, what {!run} cannot play: fewer than one
    process, a negative round budget or stability horizon, an algorithm
    whose signaler is fixed in advance (outside the theorem's scope), and
    an algorithm whose {!Signaling.validate_config} refuses every pid as
    both waiter and signaler (e.g. a single-waiter algorithm with
    [n > 1]).  An omitted count is {!run}'s default, which is valid. *)

val run :
  (module Signaling.POLLING) ->
  n:int ->
  ?tracer:Obs.Trace.t ->
  ?stability_polls:int ->
  ?max_rounds:int ->
  ?fuel:int ->
  ?resolution:[ `Independent_set | `Erase_all ] ->
  unit ->
  result
(** Run the construction with all [n] processes as potential waiters in the
    DSM model.  [stability_polls] is the Def. 6.8 horizon: a process is
    declared stable after that many complete solo Poll() calls without an
    RMR.  Raises [Invalid_argument] on what {!validate} rejects, and
    {!Out_of_fuel} when a phase exhausts [fuel].

    With [tracer], the machine emits its usual step/call events and the
    construction emits one {!Obs.Event.Adversary} decision event per
    erasure (successful, blocked, and chase variants), roll-forward,
    round, stabilization, and signaler choice.  Stability probes and
    survivor validation run on tracer-stripped snapshots, so discarded
    probe work never appears in the stream; erasure replays are silent by
    construction ({!Smr.Sim.replay}). *)

val pp_round : round_stat Fmt.t
val pp_result : result Fmt.t

(** {1 Randomized strategies}

    Alternatives to the Section 6 erasing/rolling-forward construction:
    seed-reproducible probabilistic schedules over the standard open
    workload (waiters poll until they learn; the signaler fires once the
    clock passes [signal_after]).  Both check Specification 4.1 over the
    resulting history — [ro_outcome.violations] is the verdict. *)

type random_outcome = {
  ro_policy : string;  (** [Schedule.policy_name] of the schedule played *)
  ro_seed : int;
  ro_outcome : Scenario.outcome;
}

val run_pct :
  (module Signaling.POLLING) ->
  n:int ->
  seed:int ->
  ?depth:int ->
  ?horizon:int ->
  ?cfg:Signaling.config ->
  ?model:Scenario.model_tag ->
  ?signal_after:int ->
  ?max_events:int ->
  unit ->
  random_outcome
(** PCT-style randomized priority schedule ({!Smr.Schedule.Pct}): distinct
    random priorities, [depth - 1] demotion points drawn from
    [\[1, horizon\]] (default [horizon = 40 * n]).  A depth-[d] ordering
    bug is hit with probability at least [1 / (n * horizon^(d-1))] per
    seed, so sweeping seeds buys a guaranteed detection rate. *)

val run_walk :
  (module Signaling.POLLING) ->
  n:int ->
  seed:int ->
  ?cfg:Signaling.config ->
  ?model:Scenario.model_tag ->
  ?signal_after:int ->
  ?max_events:int ->
  unit ->
  random_outcome
(** Seed-reproducible uniform random walk ({!Smr.Schedule.Random_seed}). *)

val pp_random_outcome : random_outcome Fmt.t
