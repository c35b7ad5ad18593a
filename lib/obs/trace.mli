(** The append-only trace sink.

    A trace buffers {!Event.t}s in emission order and folds every event
    into an embedded {!Metrics.t} registry as it arrives, so the metrics
    are always consistent with the stream.  Emission is O(1); the
    instrumented hot paths hold an [t option] and skip everything on
    [None], which is the zero-cost-when-disabled guarantee.

    Events are keyed by the simulator's logical clock, so a trace of a
    deterministic run is itself deterministic — sinks render it
    byte-identically regardless of host speed.  Only a live machine
    holds a trace: a replay runs on a tracerless machine, so it cannot
    emit.

    Derived metrics (per emitted event):
    - [steps_total{pid}], [rmr_total{model,pid,addr_home}],
      [messages_total{model}] from op steps;
    - [calls_total{label,pid}], the [call_rmrs{label}] histogram and
      [crashes_total{label}] from call endpoints;
    - [coherence_messages_total{interconnect,action}] and
      [cache_events_total{protocol,action}] from cache events;
    - [adversary_decisions_total{decision}]. *)

type t

val create : unit -> t

val emit : t -> Event.t -> unit
(** Append one event and fold it into the metrics registry. *)

val events : t -> Event.t list
(** In emission order. *)

val length : t -> int

val metrics : t -> Metrics.t
