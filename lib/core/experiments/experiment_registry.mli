(** The experiment registry: the single source of truth for which
    experiments exist, in presentation order.

    The CLI ([separation tables]), the bench harness, the examples and the
    tests all enumerate {!all}; an experiment is one module under
    [lib/core/experiments/] exposing an {!Experiment_def.spec} plus one
    line in this module's list. *)

val all : unit -> Experiment_def.spec list
(** The experiments (e1..e15) in presentation order. *)

val ids : unit -> string list

val find : string -> Experiment_def.spec option

val find_exn : string -> Experiment_def.spec
(** Raises [Invalid_argument] with a message listing the valid ids —
    unknown experiment names are a hard error everywhere. *)
