(** Cost models: RMR and message accounting per memory operation.

    A model is a persistent fold over executed steps.  Models never influence
    execution, only classify it, so a recorded history can be re-accounted
    under any number of models after the fact (cf. experiment E5). *)

type step_cost = {
  rmr : bool;  (** the step is a remote memory reference under this model *)
  messages : int;
      (** interconnect messages the step generates (Sec. 8 accounting) *)
}

type t

val name : t -> string

val account :
  ?trace:Obs.Trace.t * int ->
  t -> Op.pid -> Op.invocation -> wrote:bool -> t * step_cost
(** Account one executed operation.  [wrote] reports whether the operation
    was nontrivial in this execution (e.g. a successful CAS).  [trace] is
    a live traced machine's trace and the step's tick, passed by
    {!Sim.advance} only: a model that emits events of its own ({!Cc}'s
    coherence actions) emits them there, at that tick.  Without it a model
    emits nothing, so a replay or an untraced caller stays silent. *)

val predict : t -> Op.pid -> Op.invocation -> bool option
(** Whether applying this operation next would be an RMR: [Some b] when the
    classification does not depend on the operation's outcome (always the
    case in DSM), [None] when it does. *)

val make_stateful :
  name:string ->
  account:
    ('s ->
    trace:(Obs.Trace.t * int) option ->
    Op.pid ->
    Op.invocation ->
    wrote:bool ->
    's * step_cost) ->
  predict:('s -> Op.pid -> Op.invocation -> bool option) ->
  's ->
  t
(** Build a model from an explicit state and a state-transforming
    accounting function, which receives {!account}'s [trace] ([None] when
    none was passed).  The wrapper is shared across steps that leave
    the state {e physically} unchanged, so a no-op step (e.g. a cache hit
    that moves nothing) allocates no new model — the property the
    explorer's stepping hot path relies on.  Such a step still allocates
    its result pairs: a hit on an unbounded {!Cc} cache costs 8 to 10
    minor words per {!account} (test_cost_models.ml pins it below 12).
    Accounting functions should return their input state ([==]) whenever
    a step changes nothing. *)

val dsm : Var.layout -> t
(** The DSM model: an access is an RMR iff the address lives in another
    processor's memory module; every RMR is one interconnect message. *)

val local : step_cost
(** The zero cost of a local step. *)
