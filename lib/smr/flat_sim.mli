(** Flat-state simulation engine: the mutable struct-of-arrays counterpart
    of {!Sim} for heavy-traffic workloads.

    Same machine semantics — operation responses, RMR/message billing, call
    timestamps — but state lives in dense arrays indexed by address and by
    process, so one step is O(1) work and the machine instantiates at
    n = 10^6 processes.  The engine's billing allocates nothing; a step
    still allocates what interpreting its program costs, plus the result
    record of {!Op.execute} — 24.0 minor words per step on bench/suite's
    load-cc workload and 37.5 on load-dsm, constant in n and k.  No
    history, no replay: {!Sim} remains the oracle for the adversary, the
    explorer and the differential tests.  CC billing applies
    {!Cc.decide}, the same protocol table {!Cc.model} applies. *)

type complete_cb =
  pid:Op.pid ->
  label:string ->
  seq:int ->
  started:int ->
  finished:int ->
  crashed:bool ->
  result:Op.value ->
  rmrs:int ->
  steps:int ->
  unit
(** Called at every call end.  [crashed = true] marks a call interrupted by
    {!crash} ([result] is then meaningless and [finished] is the crash
    tick); otherwise the call completed with [result] at tick [finished].
    All arguments are immediate, so a callback invocation allocates
    nothing. *)

type cache_cb =
  t:int -> pid:Op.pid -> addr:Op.addr -> action:string -> messages:int -> unit
(** Called on every coherence transaction under a [Cc] model: [action] is
    ["fetch"], ["invalidate"], ["update"] or ["roundtrip"] (constant
    strings), [messages] the wire messages the transaction moved, [t] the
    logical tick.  Mirrors the [Cache] events the traced {!Cc} model
    emits, without the event allocation; arguments are immediate. *)

type model_spec =
  | Dsm  (** static home-based billing, as {!Cost_model.dsm} *)
  | Cc of { protocol : Cc.protocol; interconnect : Cc.interconnect; ways : int }
      (** cache-coherent billing, as {!Cc.model}.  [ways] bounds each
          process's cache lines (LRU); results match {!Cc}'s ideal
          unbounded cache whenever every process's live footprint fits in
          [ways] lines, and match [Cc] with [capacity = Some ways]
          otherwise. *)

val model_spec_name : model_spec -> string

type t

val create :
  ?on_complete:complete_cb ->
  ?counters:Obs.Counters.t ->
  ?on_cache:cache_cb ->
  ?ll_ways:int ->
  model:model_spec ->
  layout:Var.layout ->
  n:int ->
  unit ->
  t
(** [ll_ways] (default 4) bounds the concurrent load-links a process may
    hold; exceeding it raises (no catalog algorithm holds more than one).
    A process holds at most one cache line and one link per cell, so
    [ll_ways], and a [Cc] model's [ways], are capped at the layout size,
    where no eviction or link overflow can happen; the cap changes no
    result, and {!model_name} still spells the requested [ways].  Link
    records are allocated by the machine's first [Ll], so an algorithm
    that issues none never pays for them.

    [counters], when given, receives a bump per executed step ([Rmr] or
    [Local], at the step's within-call pc), per coherence action ([Fetch] /
    [Invalidate] / [Update], plus the transaction's messages) and per
    mid-call crash — allocation-free, so arming counters leaves the minor
    words per step unchanged.  The planes must cover
    the machine ([Obs.Counters.n] ≥ [n], [Obs.Counters.size] ≥ the layout
    size); raises [Invalid_argument] otherwise.  [on_cache], when given,
    streams the same coherence transactions as calls (for trace export);
    neither hook fires under [Dsm], which has no coherence traffic. *)

val n : t -> int
val layout : t -> Var.layout
val clock : t -> int
val model_name : t -> string

val counters : t -> Obs.Counters.t option
(** The counter planes this machine bumps, if any. *)

val is_idle : t -> Op.pid -> bool
val is_running : t -> Op.pid -> bool
val is_terminated : t -> Op.pid -> bool

val begin_call : t -> Op.pid -> label:string -> Op.value Program.t -> unit
(** Start a call; a zero-step program completes immediately (the
    [on_complete] callback fires before this returns). *)

val advance : t -> Op.pid -> unit
(** Execute the process's next operation; fires [on_complete] if the call
    finishes. *)

val skip_to : t -> int -> unit
(** Advance the clock to [time] (no-op if already past): idle gaps in an
    open-system workload, where no process has a step to take before the
    next scheduled arrival. *)

val terminate : t -> Op.pid -> unit

val crash : t -> Op.pid -> unit
(** Stop the process, mid-call allowed: the interrupted call is reported
    to [on_complete] with [crashed = true], and its step/RMR tallies are
    folded into the per-process totals, exactly as {!Sim.crash} does. *)

val run_call :
  ?fuel:int -> t -> Op.pid -> label:string -> Op.value Program.t -> Op.value
(** Begin and advance to completion; returns the call's result. *)

val rmrs : t -> Op.pid -> int
(** RMRs across the process's finished calls plus its in-flight call. *)

val step_count : t -> Op.pid -> int
val call_count : t -> Op.pid -> int
val completed_count : t -> Op.pid -> int

val last_result : t -> Op.pid -> Op.value option
(** Result of the latest finished call: [Some v] completed, [None] never
    called or crashed — the same view {!Sim.last_result} gives. *)

val total_rmrs : t -> int
val total_messages : t -> int
val total_steps : t -> int
val completed_calls : t -> int
val crashed_calls : t -> int

val value : t -> Op.addr -> Op.value
(** Current cell contents (the flat mirror of {!Memory.get}). *)

val ll_valid : t -> Op.pid -> Op.addr -> bool
(** Whether the process holds a valid load-link on the cell. *)

val bytes_per_process : t -> int
(** Resident engine state divided by [n]: the deterministic memory-footprint
    figure E14 reports.  It counts the capped cache ways, and the link
    records only once the first [Ll] has allocated them: cc-flag under
    write-through caches reads 98 at k = 10^4 (12 words and 2 bytes per
    process), dsm-broadcast under DSM 90. *)

(** {1 Snapshot and restore}

    Deep-copied machine images, for a caller that must return to an
    earlier state; only the benchmark's layer loops ([bench/suite])
    take them today.  O(size + n) each — meant to be taken per run, not
    per step. *)

type snapshot

val snapshot : t -> snapshot
(** A deep copy of the machine's entire mutable state (memory, caches,
    link records, call state, counters, clock). *)

val restore : t -> snapshot -> unit
(** Overwrite the machine's state with the snapshot's.  The snapshot must
    come from a machine of the same shape (same [n], layout size, and
    [ways] and [ll_ways] after the cap at the layout size); raises
    [Invalid_argument] otherwise.  Link records follow the snapshot: one
    taken before the first [Ll] restores a machine that holds none.  The
    [on_complete] callback is untouched, and so are any attached
    {!Obs.Counters} planes: counter planes are observational (a record of
    what executed, replays included), not machine state. *)
