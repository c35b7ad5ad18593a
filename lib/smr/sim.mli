(** The simulated asynchronous multiprocessor.

    State is fully persistent: every operation returns a new machine, so
    snapshots are O(1) — the stability check of Definition 6.8 and the
    adversary's trial erasures depend on this.  Every state change is also
    appended to a replayable trace; erasing a process from a history
    (Lemma 6.7) is replaying the trace without that process's events (or
    nothing at all, for a process that has none), and replay verifies
    that every surviving process receives exactly the responses it
    received originally, raising {!Replay_divergence} otherwise (i.e.
    when the erased process was in fact visible). *)

module Pid_map : Map.S with type key = int
module Pid_set : Set.S with type elt = int

type t

type proc_state = Idle | Running of run | Terminated

and run = {
  program : Op.value Program.t;
  label : string;
  seq : int;
  started : int;
  run_rmrs : int;
  run_steps : int;
}

exception Replay_divergence of { pid : Op.pid; time : int; detail : string }

val create : model:Cost_model.t -> layout:Var.layout -> n:int -> t
(** A machine with [n] processes, all idle, memory in its initial state,
    and no tracer attached. *)

val lean_mode : t -> t
(** The same machine with per-step history accumulation switched off: from
    this point, no {!History.step} records ([steps] stays empty, so no step
    is traced as an {!Obs.Event.Op_step} either) and no replayable trace
    ({!replay} and {!erase} raise [Invalid_argument]) are kept.  Every
    counter — clock, per-process and total RMR/message/step tallies, call
    ordinals, completed counts, {!last_result}, completed-call records,
    [ends] — is maintained exactly as in full mode, so callers that read
    only counters and call records skip the two per-step accumulators.
    Must be applied to a machine with no recorded history (raises
    otherwise). *)

val is_lean : t -> bool

val tracer : t -> Obs.Trace.t option

val with_tracer : t -> Obs.Trace.t option -> t
(** The same machine with a different (or no) tracer attached.  While a
    tracer is attached, every call begin/end, executed step, crash and
    termination is emitted as an {!Obs.Event.t} keyed by the logical
    clock, and each step hands the trace and its tick to
    {!Cost_model.account}, so a CC model's cache actions join the same
    stream; with no tracer, instrumentation costs nothing.  The machine
    is the only holder of a trace: erasure replays run on a tracerless
    machine and so are always silent, and [None] silences observation on
    throwaway snapshots such as the adversary's stability probes. *)

val n : t -> int
val layout : t -> Var.layout
val memory : t -> Memory.t
val clock : t -> int
(** Logical event clock: call begins/ends and steps each advance it. *)

val proc_state : t -> Op.pid -> proc_state
val is_idle : t -> Op.pid -> bool
val is_running : t -> Op.pid -> bool
val is_terminated : t -> Op.pid -> bool

val peek : t -> Op.pid -> Op.invocation option
(** The memory operation the process would apply on its next step, without
    applying it — the adversary's basic observation. *)

val next_is_rmr : t -> Op.pid -> bool option
(** Whether the peeked operation would be an RMR under the primary cost
    model ([Some]), or [None] when there is no pending operation or the
    classification depends on the outcome. Exact in the DSM model. *)

val begin_call : t -> Op.pid -> label:string -> Op.value Program.t -> t
(** Start a procedure call on an idle process.  A program that returns
    without any memory operation completes immediately. *)

val advance : t -> Op.pid -> t
(** Execute the process's next memory operation.  If the call's program
    thereby finishes, the call is recorded as complete and the process
    becomes idle. *)

val terminate : t -> Op.pid -> t
(** The process terminates (stops taking steps); only legal between calls. *)

val crash : t -> Op.pid -> t
(** The process crashes: it stops taking steps even mid-call (paper,
    Sec. 2).  An interrupted call is recorded as begun-but-unfinished. *)

val run_to_idle : ?fuel:int -> t -> Op.pid -> t
(** Advance the process until its current call completes. *)

val run_call : ?fuel:int -> t -> Op.pid -> label:string -> Op.value Program.t -> t * Op.value
(** [begin_call] followed by [run_to_idle]; returns the call's result. *)

(** {1 History and accounting} *)

val steps : t -> History.step list
(** Chronological list of executed steps; always empty in lean mode. *)

val calls : t -> History.call list
(** Completed and crashed calls in completion order, followed by calls
    still in flight (begun, unfinished).  Pending calls matter to
    Specification 4.1, which quantifies over calls that have {e begun}. *)

val calls_of : t -> Op.pid -> History.call list

val participants : t -> Pid_set.t
(** Processes that have begun at least one call. *)

val rmrs : t -> Op.pid -> int
(** RMRs the process has incurred, under the primary model. *)

val total_rmrs : t -> int

val total_messages : t -> int

val step_count : t -> Op.pid -> int

val call_count : t -> Op.pid -> int
(** Number of calls the process has {e begun} (completed, crashed and
    pending alike).  O(log n), unlike [List.length (calls_of t p)], which
    walks the whole recorded history. *)

val completed_count : t -> Op.pid -> int
(** Number of calls the process has completed; crashed calls never count. *)

val last_step : t -> History.step option
(** The most recently executed step, if any.  O(1).  Always [None] in lean
    mode, which keeps no step records. *)

val ends : t -> (Op.pid * int * bool) list
(** Terminations and crashes in chronological order: process, the tick at
    which it stopped, and whether it crashed ([true]) or terminated
    cleanly ([false]). *)

val last_result : t -> Op.pid -> Op.value option
(** Outcome of the process's most recent completed-or-crashed call: the
    result if it completed, [None] if it crashed (or if the process never
    finished a call).  An earlier completed call never shines through a
    later crashed one. *)

(** {1 Replay and erasure (Lemma 6.7)} *)

val replay : ?check:bool -> keep:(Op.pid -> bool) -> t -> t
(** Re-execute the machine's trace, dropping every event of processes not
    kept.  With [check] (default), every surviving step's response is
    compared against the original and {!Replay_divergence} is raised on any
    difference — the witness that the erased processes were visible.
    Raises [Invalid_argument] on a lean machine, which keeps no trace. *)

val erase : t -> Op.pid list -> t
(** [replay] keeping everyone except the given processes.  A victim with
    no recorded event — one that never began a call and was never crashed
    or terminated — is invisible to everyone (the trivial case of
    Lemma 6.7), so it is dropped without a replay: the survivors'
    responses, memory, counters, call records and tracer are what the
    replay would rebuild.  When no other victim remains, the machine
    itself comes back, in O(k log n) for k victims; otherwise the whole
    trace is replayed as by {!replay}.  Raises [Invalid_argument] on a
    lean machine, whatever the victims. *)

val can_erase : t -> Op.pid list -> bool
(** Whether erasure succeeds without divergence. *)

val pp : t Fmt.t
