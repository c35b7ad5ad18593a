(** Exhaustive interleaving exploration — a small-scope model checker.

    Enumerates the step-level interleavings of the given per-process call
    scripts (the search state is persistent, so branching is free) and
    checks a property on each complete history.  Three reductions make
    exhaustive checking scale well past the naive DFS: canonical
    state-fingerprint deduplication, sleep-set partial-order reduction
    over {!Op.commute}, and symmetry reduction over interchangeable
    waiters.  The search is one depth-first pass over one dedup table, so
    verdicts and statistics (wall time aside) are the same on every run.

    The search does not step a {!Sim.t}: it steps memory and the caller's
    cost model directly, keeping exactly what the two contracts below
    read.  It does no file I/O: it keeps its visited states in memory, as
    packed keys interned to {!Fp_intern} ids with their sleep-set
    antichains, so resident memory grows with [stats.fp_distinct].  A
    violating history is rebuilt afterwards as a full-history machine (see
    {!result}).

    {b Soundness contract.}  With [dedup]/[por] on (the default), the
    property must be a function of the recorded calls' results and of
    their interval order (which call began/completed before which) — as
    Specification 4.1 and the GME occupancy predicate are — not of raw
    timestamps, RMR counts or list order; and scripts must decide their
    next call from the script-visible state only (own call count, own
    last result), which is all a {!view} offers.  Pass [~dedup:false
    ~por:false] to recover the seed checker's literal
    one-leaf-per-interleaving semantics for arbitrary properties. *)

type view
(** What a script sees of the search state: per process, the number of
    calls begun and the last result. *)

val call_count : view -> Op.pid -> int
(** Calls the process has begun (completed and in flight). *)

val last_result : view -> Op.pid -> Op.value option
(** Result of the process's latest call when it is idle — the only time a
    script is consulted; [None] before its first call and while one is in
    flight. *)

type script = view -> Op.pid -> (string * Op.value Program.t) option
(** What a process does when idle: the next call, or [None] when done.
    Must be a pure function of the view — search branches share nothing,
    so stateful closures would corrupt the enumeration. *)

val of_list : (string * Op.value Program.t) list -> script
(** Perform exactly these calls, in order. *)

val repeat :
  ?limit:int -> until:(Op.value -> bool) -> string * Op.value Program.t -> script
(** Repeat one call until its result satisfies [until] (or [limit] calls
    have begun) — e.g. "Poll() until it returns true", the history
    restriction of Section 4. *)

type stats = {
  states : int;
      (** search nodes visited, pruned nodes included — the headline
          scalability number to compare against a [~dedup:false
          ~por:false] run *)
  dedup_hits : int;  (** nodes pruned as equivalent to an explored state *)
  por_prunes : int;  (** nodes whose every enabled move was asleep *)
  max_depth : int;  (** deepest step count reached on any branch *)
  orbit_hits : int;
      (** dedup hits whose canonical key required a non-identity waiter
          relabeling — the pruning attributable to symmetry reduction
          specifically (0 when [symmetry] is empty) *)
  fp_distinct : int;
      (** distinct dedup keys (orbit representatives) interned *)
  fp_collisions : int;
      (** distinct keys that landed on an already-occupied full hash —
          hash-quality diagnostic, never a soundness signal *)
  fp_resizes : int;  (** intern-table slot doublings *)
  fp_slots : int;
      (** intern-table slot capacity; [fp_distinct /. fp_slots] is the
          occupancy *)
  wall_s : float;
      (** elapsed seconds on the monotonic {e wall} clock ({!Obs.Clock},
          not [Sys.time], which measures CPU time); the only field that
          varies from run to run and across hosts — keep it out of any
          byte-comparison or golden fixture. *)
}

type result = {
  histories : int;  (** histories (leaves) the property was checked on *)
  truncated : int;
      (** branches cut at [max_steps_per_history] — spin loops make some
          branches infinite; truncated prefixes are still property-checked *)
  complete : bool;  (** whether every interleaving was fully enumerated *)
  violation : Sim.t option;
      (** a history falsifying the property: the search's move path
          replayed on a fresh full-history machine under the caller's
          [model], so {!Sim.steps}, {!Sim.calls} and {!Timeline} all work
          on it, and it is the same on every run *)
  stats : stats;
}

val detect_symmetry :
  ?fuel:int ->
  values:Op.value list ->
  (Op.pid * (string * Op.value Program.t)) list ->
  Sim.Pid_set.t
(** The pids (of the given (pid, labeled first call) candidates) whose
    calls are literally interchangeable with the first candidate's: same
    label, and bisimilar program trees — invocations compared structurally
    at every node, continuations followed for every response in [values] —
    with [Ll] refused anywhere (a load-link records its pid in the memory
    fingerprint, breaking permutation invariance).  A continuation that
    raises on a value of [values] (which may hold responses the program
    never really receives, such as the pid-option NIL code) is a stuck
    leaf, as in {!Analysis.Cfg.extract}: two stuck leaves match, a stuck
    leaf against a live program does not.  Candidates are
    typically one representative call per waiter; {!repeat}-style scripts
    stay symmetric whenever their underlying call is, since they branch
    only on own-process counts and results.

    Detection is conservative by construction: [fuel] (default 4096)
    bounds the nodes visited per comparison and exhaustion declines the
    candidate, so unbounded (spinning) call bodies fall back to the empty
    set rather than diverge.  It is {e exact} only when [values] covers
    every response the programs can receive — pass
    [Analysis.Lint.value_domain] (or a superset) for catalog algorithms.
    Fewer than two matching candidates yield the empty set.  The returned
    set is meant for {!check}'s [symmetry] argument; the {e property}'s
    invariance under waiter permutation (true of Specification 4.1) is the
    caller's responsibility. *)

val check :
  ?max_histories:int ->
  ?max_steps_per_history:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?commute:(Op.invocation -> Op.invocation -> bool) ->
  ?split_depth:int ->
  ?symmetry:Sim.Pid_set.t ->
  layout:Var.layout ->
  model:Cost_model.t ->
  n:int ->
  scripts:(Op.pid * script) list ->
  property:(History.call list -> bool) ->
  unit ->
  result
(** The property is evaluated whenever a call completes and at every leaf,
    on the calls recorded so far — completed ones and those in flight, as
    {!Sim.calls} would report them for the same history, but in
    unspecified order; checking it on prefixes is sufficient for safety
    properties over recorded calls (violations persist) and is what makes
    pruning sound.  Each record's [c_rmrs] is billed under [model].

    [max_histories] (default 10{^6}) caps the histories checked: the
    search stops right after the [max_histories]-th leaf and reports
    itself incomplete; at 0 or below it checks nothing.

    [commute] (default {!Op.commute}) is the independence relation the
    sleep-set POR consults for advance/advance pairs.  A replacement must
    be {e sound for the scripts being explored}: whenever it declares two
    invocations independent, executing them in either order from any
    reachable state must produce the same memory fingerprint and the same
    responses (the {!Commute_check} standard); an unsound relation
    silently prunes real interleavings.

    [split_depth] is ignored: the search is always one depth-first pass
    over one dedup table.  It is accepted only so that callers still
    passing it (the benchmark's explore workloads) keep compiling, and
    goes once they drop it.

    [symmetry] (default empty) names interchangeable pids: before a state
    meets the dedup tables, its key — never the live search state — is
    relabeled to a canonical orbit representative under permutation of
    those pids, and its sleep set crosses into the same canonical
    coordinates, so permuted twins merge (the factorial cut symmetry
    reduction is named for).  {b Sound only when} the named pids run
    literally interchangeable scripts with no [Ll] — use
    {!detect_symmetry} — and the property is invariant under their
    permutation, as Specification 4.1 is.  The verdict ([violation]
    presence, [complete]) is unchanged by a sound [symmetry]; [states],
    [dedup_hits] and [histories] legitimately shrink.

    With dedup on, every distinct key the search reaches stays resident
    until it ends.  A key is one packed byte string (the observable
    memory cells and a few small ints per process, labels and response
    lists as search-local ids) plus its table slots and an antichain id:
    on cc-flag with 2 polls, the heap peaks at about 160 bytes per distinct
    key with 5 waiters and 180 with 6, and a key does not grow with how
    long a call has spun (see docs/MODEL.md, "Exploration fast path" and
    "Symmetry reduction", for the peak memory measured at the largest
    scopes). *)

(** Internal canonicalization and key-packing machinery under stable
    constructors, so the test suite can state the canonicalization laws —
    idempotence, invariance under waiter relabelings, pinned slots never
    moved, hash and key computed through the permutation agreeing with the
    materialized array — and the packing law — two keys are equal iff
    their states are — directly against the production comparator, sort,
    permutation and encoder.  Not for production use. *)
module Testing : sig
  type slot
  (** One process's control point as the dedup key sees it. *)

  val idle : begun:int -> last:Op.value option -> slot

  val running :
    label:string ->
    seq:int ->
    resps_rev:Op.value list ->
    snap:int array ->
    slot
  (** [snap] is the per-pid completed-call snapshot at the call's start;
      its length must equal the slot array's. *)

  val relabel : perm:int array -> slot array -> slot array
  (** Image of the array under [perm] (old pid -> new pid), slot positions
      and every running slot's snapshot re-indexed alike. *)

  val canonicalize : symmetry:Sim.Pid_set.t -> slot array -> slot array * bool
  (** The canonical orbit representative of the array's dedup key,
      materialized, and whether a non-identity relabeling produced it. *)

  val hash : slot array -> int
  (** The slot-hash sum the dedup key of this exact array hashes with. *)

  val canonical_hash : symmetry:Sim.Pid_set.t -> slot array -> int
  (** [hash (fst (canonicalize ~symmetry a))], computed as the search does:
      through the permutation, without building the canonical array. *)

  type ids
  (** The search-local ids a key writes for labels and response lists, as
      one search assigns them. *)

  val ids : unit -> ids
  (** Fresh ids, as a new search starts with. *)

  val key :
    ?ids:ids -> symmetry:Sim.Pid_set.t -> Memory.t -> slot array -> string
  (** The packed key the search stores for the state with this memory and
      these slots: canonicalized under [symmetry], encoded through the
      permutation.  Keys compare meaningfully only under the same [ids];
      the default is one set shared by every call in the process. *)

  val canonical_equal : symmetry:Sim.Pid_set.t -> slot array -> slot array -> bool
  (** [canonical_equal ~symmetry a key] is [equal (fst (canonicalize
      ~symmetry a)) key], decided as the search decides it against a
      stored key: by comparing [a]'s packed key, encoded through the
      permutation, with the one stored for [key] (both over an empty
      memory). *)

  val equal : slot array -> slot array -> bool
  (** Structural equality of the fields a key encodes (labels, seqs,
      responses, snapshots; begun counts and last results) — the reference
      the packed keys are tested against. *)

  val slot_equal : slot -> slot -> bool

  val heap_sort : (int -> int -> int) -> int array -> unit
  (** The canonicalizer's in-place sort: [Array.sort]'s algorithm,
      specialized to int arrays, so it returns what [Array.sort] returns
      under the same comparator, ties included. *)
end
