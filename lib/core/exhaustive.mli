(** Exhaustive Specification 4.1 checks of a catalog algorithm: the
    scenario behind `separation explore`.  One signaler set runs a single
    Signal() each; each waiter polls until a Poll() returns true or
    [polls] calls have begun.  Shared by the CLI, the golden-file
    generator and the tests, so all three build the same search and the
    same table. *)

type setup = {
  algorithm : (module Signaling.POLLING);
  n : int;  (** processes *)
  waiters : int;  (** waiter pids follow the signalers' *)
  polls : int;  (** maximum polls per waiter *)
  signalers : int;  (** signaler pids are [0 .. signalers-1] *)
  static_indep : bool;
      (** extend {!Smr.Op.commute} with the algorithm's static-independence
          facts *)
  cap : int;  (** maximum histories *)
  dedup : bool;
  por : bool;
  symmetry : bool;  (** detect interchangeable waiters and reduce by them *)
}

val setup : (module Signaling.POLLING) -> setup
(** The CLI's defaults: N = 16, 2 waiters, 2 polls, 1 signaler, a cap of
    10^6 histories, every reduction on. *)

val validate : setup -> (unit, string) result
(** Rejects, with a message, what the search cannot run: fewer than one
    process, negative counts, and role configurations the algorithm's
    {!Signaling.validate_config} refuses (pids out of range, too many
    waiters or signalers). *)

type prepared = {
  layout : Smr.Var.layout;
  scripts : (Smr.Op.pid * Smr.Explore.script) list;
  commute : Smr.Op.invocation -> Smr.Op.invocation -> bool;
      (** {!Smr.Op.commute}, extended by [facts] *)
  symmetry : Smr.Sim.Pid_set.t;
      (** the interchangeable waiters to reduce by; empty when detection
          declined or [setup.symmetry] is off *)
  facts : Analysis.Independence.facts option;  (** with [static_indep] *)
}

val prepare : setup -> prepared
(** Instantiate the algorithm and build the search: scripts, independence
    relation, detected symmetry.  Raises [Invalid_argument] on a setup
    {!validate} rejects. *)

val search : setup -> prepared -> Smr.Explore.result
(** Check Specification 4.1 ({!Signaling.polling_ok}) on every explored
    interleaving, under the DSM cost model. *)

val table : setup -> prepared -> Smr.Explore.result -> Results.table
(** The one-row result table `separation explore --json` prints: only
    run-invariant facts (wall time stays out), so two runs compare byte
    for byte. *)
