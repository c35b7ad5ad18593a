(** The cache-state lattice the amortized lint interprets over.

    A state is the set of cells the analyzed process holds a valid copy
    of, ordered by reverse inclusion: holding more is knowing more, and
    join intersects, so merging paths can only forget cache contents.
    {!transfer} bills the worst case of {!Smr.Cc.decide} over every
    protocol and both outcomes of the operation, never claiming
    write-back ownership, so a bound it proves holds under every
    protocol.  The model is the ideal unbounded cache of Section 8;
    capacity eviction (E12) is out of scope. *)

open Smr

type state

val top : state
(** Nothing held — the sound start of every fixpoint. *)

val join : state -> state -> state
val equal : state -> state -> bool

val leq : state -> state -> bool
(** [leq s1 s2]: [s1] holds every cell [s2] holds. *)

val transfer : state -> Op.invocation -> int * state
(** One access by the analyzed process: (RMRs billed, post-state).  The
    post-state holds the accessed cell.  Monotone in the state argument —
    the lattice-law test in test_lint.ml checks this over the full
    enumeration. *)
