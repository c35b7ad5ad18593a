(** The lint driver: extract, check, compare against claims.

    For one {!Registry.entry} the driver runs two extraction passes.  Pass
    one unfolds every (call, pid) with no exclusivity information and
    collects, per cell, the set of processes that may write it — this both
    feeds the write-ownership audit and computes the [exclusive] oracle for
    pass two.  Pass two re-extracts with owned-cell value tracking (precise
    enough to see through "register once, then spin locally" patterns) and
    evaluates the five checks:

    - {b primitive-class}: reachable kinds vs the declared classes;
    - {b local-spin}: observed busy-wait locality vs the claimed {!Claims.spin};
    - {b rmr-bound}: worst-case DSM RMRs vs the claimed {!Claims.bound};
    - {b amortized}: the {!Amortized} cache-fixpoint analysis vs the claimed
      {!Claims.cc_amortized} ([Abortable]/[Recoverable] flavors are held to
      their cold-cache worst path until those semantics land);
    - {b write-ownership}: per-cell writer sets vs the single-writer list;

    plus {b incomplete} when fuel cut a branch (an unverified claim is a
    failure, not a pass). *)

open Smr

type call_report = {
  call : string;
  pids : int;  (** number of processes analyzed *)
  nodes : int;  (** total CFG nodes across analyzed processes *)
  cycles : int;
  stuck : int;
  complete : bool;
  classes : Op.primitive_class list;  (** union over analyzed processes *)
  spin : Claims.spin;  (** worst over analyzed processes *)
  rmrs : Claims.bound;  (** worst over analyzed processes *)
  amortized : Amortized.result;  (** componentwise worst over processes *)
  violations : string list;  (** each tagged with the check's name *)
}

type report = {
  entry : Registry.entry;
  calls : call_report list;
  writer_violations : string list;
  ok : bool;
}

val value_domain : n:int -> layout:Var.layout -> Op.value list
(** The default response domain for unconstrained reads: -1 (the pid_opt
    NIL), 0..n, and every initial value of [layout].  Exposed so callers
    unfolding programs outside a registry entry (e.g. the explorer's
    symmetry detection) branch over the same domain the lint does. *)

val run : ?fuel:int -> ?unroll:int -> Registry.entry -> report
(** [fuel]/[unroll] override the extractor defaults (an entry's own [fuel]
    field wins over both). *)

val run_all : ?fuel:int -> ?unroll:int -> Registry.entry list -> report list

val all_ok : report list -> bool

val violations : report -> string list
(** Every violation in the report, call-level and entry-level. *)
