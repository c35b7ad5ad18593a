(** Scenario drivers: run a signaling algorithm under a cost model and a
    schedule, check Specification 4.1 and report RMR accounting.

    {!run_phased} is deterministic and feeds the experiment tables;
    {!run_random} interleaves at step granularity under a seeded PRNG and
    feeds the property-based safety tests. *)

open Smr

type outcome = {
  sim : Sim.t;
  violations : Signaling.violation list;
  total_rmrs : int;
  total_messages : int;
  participants : int;
  signaler_rmrs : int;  (** max over configured signalers *)
  max_waiter_rmrs : int;
  amortized : float;  (** total RMRs / participants *)
  unfinished_waiters : int;  (** waiters that never saw the signal *)
}

(** The models the CLI names. *)
type named_model =
  [ `Dsm
  | `Cc_wt  (** write-through invalidate over a bus *)
  | `Cc_wb  (** write-back over a bus *)
  | `Cc_lfcu  (** write-update (LFCU) over a bus *) ]

(** Cost-model selectors the experiments sweep over. *)
type model_tag = [ named_model | `Cc of Cc.protocol * Cc.interconnect ]

val named_models : named_model list
(** [dsm], [cc-wt], [cc-wb], [cc-lfcu], in that order. *)

val cc_of_tag : model_tag -> (Cc.protocol * Cc.interconnect) option
(** The protocol and interconnect a CC tag stands for; [None] for DSM.
    Every engine builds its model from this one table. *)

val model_tag_name : model_tag -> string

val make_model : n:int -> Var.layout -> model_tag -> Cost_model.t

val run_phased :
  (module Signaling.POLLING) ->
  model:model_tag ->
  cfg:Signaling.config ->
  ?tracer:Obs.Trace.t ->
  ?active_waiters:Op.pid list ->
  ?pre_polls:int ->
  ?post_poll_bound:int ->
  ?fuel:int ->
  unit ->
  outcome
(** Deterministic: each participating waiter performs [pre_polls] Poll()
    calls (asserted false), every configured signaler signals once, then
    each participating waiter polls until it sees true.  [active_waiters]
    restricts which configured waiters participate — the
    partial-participation scenarios where O(W)-signaler algorithms lose
    amortized O(1).  With [tracer], the machine emits the full per-step
    event stream, including the CC model's coherence events (DSM has no
    coherence traffic to report). *)

val run_random :
  (module Signaling.POLLING) ->
  model:model_tag ->
  cfg:Signaling.config ->
  seed:int ->
  ?policy:Smr.Schedule.policy ->
  ?signal_after:int ->
  ?max_events:int ->
  unit ->
  outcome
(** Randomized step-level interleaving; the signaler fires once the logical
    clock passes [signal_after]; waiters poll until they see true.
    [policy] overrides the default uniform random walk
    ([Schedule.Random_seed seed]) — {!Adversary.run_pct} passes
    [Schedule.Pct] here. *)

val run_blocking :
  (module Signaling.BLOCKING) ->
  model:model_tag ->
  cfg:Signaling.config ->
  seed:int ->
  ?signal_after:int ->
  ?max_events:int ->
  unit ->
  outcome
(** Blocking semantics under a randomized schedule: each waiter calls
    Wait() once; checked against the blocking half of Specification 4.1. *)
