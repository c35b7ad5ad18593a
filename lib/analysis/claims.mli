(** Machine-checkable claims an algorithm makes about itself.

    Every algorithm in the repo encodes a statement from the paper's
    complexity landscape — "cc-flag uses reads and writes only", "the DSM
    solutions are local-spin", "Poll is O(1) RMR".  A [Claims.t] states those
    properties as data so {!Lint} can verify them against the extracted
    control-flow graph instead of trusting comments. *)

(** How a call busy-waits, ordered [No_spin < Local_spin < Remote_spin].
    A claim passes when the observed behaviour is no worse than declared
    (over-claiming [Remote_spin] is always sound, never flattering). *)
type spin = No_spin | Local_spin | Remote_spin

(** Worst-case DSM RMRs over any single call: a concrete bound, or
    unbounded (some reachable loop performs a remote reference). *)
type bound = Rmr of int | Unbounded

(** An amortized CC RMR bound, the separation's native currency (the paper's
    Thm. 5.1 side: cc-flag pays O(1) RMRs {e per Signal}, not per call).
    Over any execution with [N] calls and [S] interfering external calls,
    total CC RMRs are at most [c0 + N*steady + S*refills], where [c0] is the
    one-time cold cost of populating the cache footprint:

    - [steady]: RMRs of one call once the cache has reached its fixpoint,
      with no interference during the call;
    - [refills]: footprint cells an external call's nontrivial operation can
      invalidate — the surcharge each such call adds (one re-fetch per
      invalidated cell).  PR 7's failed-CAS counterexample is why {e every}
      non-read-only external operation counts as invalidating: under
      write-back even a failed comparison acquires exclusive ownership. *)
type amortized = { steady : bound; refills : int }

(** The amortized-claim vocabulary of the adjacent results in PAPERS.md:
    [Amortized] is checked against the cache-fixpoint analysis;
    [Abortable] (Jayanti & Jayanti's constant-amortized abortable mutex) and
    [Recoverable] (Chan & Woelfel's crash-recoverable bounds) are checked as
    worst-path (cold-cache) bounds until abort/crash-recover semantics land
    in the DSL — the vocabulary is complete now so those algorithms can
    declare themselves when they arrive. *)
type cc_amortized =
  | Amortized of amortized
  | Abortable of amortized
  | Recoverable of amortized

type call_claim = {
  spin : spin;  (** worst busy-wait locality over every analyzed process *)
  dsm_rmrs : bound;  (** worst-case RMRs of one call under {!Smr.Cost_model.dsm} *)
  cc_amortized : cc_amortized;
      (** amortized RMRs of one call under any CC protocol (wt/wb/update) *)
}

type t = {
  single_writer : string list;
      (** base names of variables claimed to have at most one (potentially)
          writing process per cell; array cells are matched by the name
          before the ["[i]"] suffix *)
  calls : (string * call_claim) list;  (** claim per exported call label *)
}

val call : t -> string -> call_claim
(** Look up a call's claim; raises [Invalid_argument] for an undeclared
    label so a catalog typo fails loudly. *)

val spin_leq : spin -> spin -> bool
val bound_leq : bound -> bound -> bool

val amortized_leq : amortized -> amortized -> bool
(** Componentwise: the observed bound is no worse than the declared one. *)

val amortized_of : cc_amortized -> amortized
(** The payload, whatever the flavor. *)

val spin_name : spin -> string
val bound_name : bound -> string

val amortized_name : amortized -> string
(** ["steady+refillsr"], e.g. ["1+0r"], ["0+1r"], ["unbounded+2r"]. *)

val cc_amortized_name : cc_amortized -> string

val pp_spin : spin Fmt.t
val pp_bound : bound Fmt.t
val pp_amortized : amortized Fmt.t
val pp_cc_amortized : cc_amortized Fmt.t
