(** The amortized-bound pass: abstract interpretation of a call's {!Cfg}
    over the {!Absdomain} cache lattice, proving {!Claims.amortized}
    bounds.

    The accounting is the potential argument from the paper's CC side
    (Phi = cells of the call's read footprint not held): over any execution
    with [N] calls and [S] interfering external calls,

    {v total CC RMRs <= cold + N * steady + S * refills v}

    where [cold] is the worst single-call cost from the nothing-held start,
    [steady] the worst cost once the inter-call cache state reaches its
    fixpoint, and [refills] the number of footprint cells an external
    call's non-read-only operation can invalidate.  Soundness caveats
    (ideal cache, failed comparisons counted as invalidating) are spelled
    out in docs/MODEL.md. *)

open Smr

type result = {
  cold : Claims.bound;  (** worst path from the nothing-held state *)
  steady : Claims.bound;
      (** worst path at the inter-call cache fixpoint; [Unbounded] iff some
          cycle still bills at the fixpoint (iff a cycle body contains a
          non-read-only operation, since every mutation bills) *)
  refills : int;  (** read-footprint cells external mutations can kill *)
  footprint : Op.addr list;  (** cells read somewhere in the graph *)
}

val interpret : Absdomain.state -> Cfg.t -> Claims.bound * Absdomain.state
(** One whole-call interpretation from the given entry state: the worst
    path cost ([Unbounded] if some cycle's residual — the cost of a body
    pass from its own fixpoint — is nonzero) and the join of all exit
    states, for chaining into the next call. *)

val analyze : ext_mut:(Op.addr -> bool) -> Cfg.t -> result
(** Full analysis, sound under every CC protocol.
    [ext_mut a] must be [true] whenever some {e other} process performs a
    non-read-only operation on [a] — {!Lint} computes this from its
    exclusivity-free first pass. *)
