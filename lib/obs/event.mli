(** The closed schema of trace events: what a live traced machine
    ({!Smr.Sim} with a tracer) emits — its own steps, calls and exits,
    its cost model's cache actions, and the decisions of an adversary
    driving it — and nothing else.

    Every event is keyed by the simulator's {e logical event clock} —
    never wall time — so a recorded stream is a pure function of the run's
    inputs and can be byte-compared across runs and hosts.  All fields are
    primitives (int/string/bool): [Obs] sits below the simulator in the
    dependency order, and emitters translate their own vocabulary into
    it.

    The schema is deliberately closed: sinks ({!Sink_jsonl},
    {!Sink_chrome}, {!Sink_text}) and the metrics fold ({!Trace.emit})
    pattern-match exhaustively, so adding a constructor is a compile-time
    event for every consumer. *)

(** Where the accessed cell is homed in the DSM sense: one process's
    memory module, or a module remote to everyone (mirrors [Smr.Var.home]
    without depending on it). *)
type home = Module of int | Shared

val home_label : home -> string
(** ["p<i>"] or ["shared"] — the [addr_home] metric label. *)

type t =
  | Op_step of {
      t : int;  (** logical tick of the step *)
      pid : int;
      kind : string;  (** operation mnemonic: "read", "cas", ... *)
      addr : int;
      var : string;  (** the cell's declared debug name *)
      home : home;
      response : int;
      wrote : bool;  (** the operation was nontrivial in this execution *)
      rmr : bool;  (** under the run's primary cost model *)
      messages : int;
      model : string;  (** primary cost-model name, e.g. "dsm" *)
      call_seq : int;  (** ordinal of the enclosing call in its process *)
    }  (** One executed memory operation ([Smr.Memory.apply] + accounting). *)
  | Call_begin of { t : int; pid : int; label : string; seq : int }
  | Call_end of {
      t : int;
      pid : int;
      label : string;
      seq : int;
      result : int;
      rmrs : int;  (** RMRs charged to the call under the primary model *)
      steps : int;
    }
  | Call_crash of {
      t : int;
      pid : int;
      label : string;
      seq : int;
      rmrs : int;
      steps : int;
    }  (** A process crashed mid-call; the call is begun-but-unfinished. *)
  | Proc_exit of { t : int; pid : int; crashed : bool }
  | Cache of {
      t : int;
      pid : int;
      addr : int;
      action : string;
          (** "fetch" (read miss), "invalidate", "update", or "roundtrip"
              (a failed write-through mutation's global round trip) *)
      copies : int;  (** remote copies reached (0 for "fetch"/"roundtrip") *)
      messages : int;  (** interconnect messages the action generated *)
      protocol : string;  (** "cc-wt" / "cc-wb" / "cc-lfcu" *)
      interconnect : string;  (** "bus" / "dir" / "dir<k>" *)
    }
      (** One cache-coherence action from {!Smr.Cc}, billed inside the
          traced step and stamped with its tick. *)
  | Adversary of { t : int; decision : string; pid : int; detail : string }
      (** A Section 6 construction decision ("erase", "erase-blocked",
          "roll-forward", "round", "stabilized", "signaler",
          "chase-erase", "chase-blocked"); [pid] is the process acted on,
          [-1] for whole-round decisions. *)
