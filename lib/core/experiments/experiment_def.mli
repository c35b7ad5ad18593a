(** The shape of a registered experiment.

    Each of the suite's experiments lives in its own module under
    [lib/core/experiments/] and exposes a {!spec}; the registration line in
    {!Experiment_registry} makes it discoverable by the CLI and the
    tests.  Adding an experiment is one new file plus that
    one line. *)

(** Which parameter set a run uses: [Default] regenerates the full
    EXPERIMENTS.md tables; [Reduced] is the small set of
    [separation tables --reduced], which CI diffs across [--jobs]
    levels. *)
type size = Default | Reduced

type spec = {
  id : string;  (** registry key, e.g. ["e1"]; unique *)
  title : string;  (** one-line human title *)
  claim : string;  (** the paper-section claim the experiment regenerates *)
  shape_note : string;
      (** what the expected-shape predicate checks, for docs and [--list] *)
  run : jobs:int -> size -> Results.table list;
      (** Deterministic; [jobs] bounds point-level fan-out (see
          {!Parallel.map}), and never affects the produced tables. *)
  shape : Results.table list -> (unit, string) result;
      (** Expected-shape predicate over [run]'s output (E1 flat in N, E2
          growing, E5 separation, ...): [Error] describes the violated
          expectation.  Checked by {!Runner} on the [Default] size. *)
}

val shape_all :
  Results.table -> string -> (Results.value -> bool) -> (unit, string) result
(** [shape_all t col p] is [Ok ()] when every row's cell under [col]
    satisfies [p], otherwise an [Error] naming the first offending row. *)

val check : bool -> string -> (unit, string) result
(** [check cond msg] is [Ok ()] or [Error msg]. *)

val ( >>> ) :
  (unit, string) result -> (unit -> (unit, string) result) ->
  (unit, string) result
(** Short-circuiting sequencing for predicate pipelines. *)
