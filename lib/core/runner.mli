(** The experiment runner: fan registered experiments — and independent
    parameter points within one experiment — out across OCaml 5 domains.

    Safe because the simulator is purely functional and every run is
    deterministic; output ordering follows the input spec list (and each
    experiment's own point order), never completion order, so any [jobs]
    level produces byte-identical results. *)

type outcome = {
  spec : Experiment_def.spec;
  tables : Results.table list;
  shape : (unit, string) result option;
      (** [Some] iff the expected-shape predicate was evaluated (it is
          only meaningful on the [Default] parameter sets). *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the cap the CLI applies when no
    explicit [--jobs] is given. *)

val run :
  ?jobs:int ->
  ?size:Experiment_def.size ->
  Experiment_def.spec list ->
  outcome list
(** [jobs] defaults to {!default_jobs}; [size] to [Default].  With at
    least two specs and [jobs > 1] the specs themselves are fanned out;
    with a single spec its internal parameter points are.  Expected-shape
    predicates are evaluated only when [size = Default]. *)

val tables : outcome list -> Results.table list

val failed_shapes : outcome list -> (string * string) list
(** [(experiment id, violated expectation)] for every evaluated predicate
    that failed. *)
