(** Persistent shared memory with the bookkeeping the Section 6 proof needs.

    The store tracks, per cell: its value, the last process to overwrite it
    (the "sees" relation of Definition 6.4 reads a variable {e last written}
    by some process), the processes holding valid load-links, and the set of
    all processes that ever overwrote it (condition 3 of regularity,
    Definition 6.6).  All state is persistent: snapshots are O(1). *)

type t

val create : Var.layout -> t
(** Memory in its initial state: every cell holds its layout-declared initial
    value and has no writer. *)

val get : t -> Op.addr -> Op.value

val last_writer : t -> Op.addr -> Op.pid option
(** The process whose nontrivial operation last overwrote the cell, if any. *)

val writers : t -> Op.addr -> Op.pid list
(** Every process that ever overwrote the cell. *)

val ll_valid : t -> pid:Op.pid -> Op.addr -> bool
(** Whether [pid]'s load-link on the cell is still valid (no nontrivial
    operation on the cell since the link was taken). *)

type applied = {
  memory : t;
  response : Op.value;
  wrote : bool;  (** the operation was nontrivial in this execution *)
  read_from : Op.pid option;
      (** the cell's last writer, when the operation observed the cell's
          value (every operation except a blind [Write] does) *)
}

val apply : t -> pid:Op.pid -> Op.invocation -> applied
(** Execute one atomic operation. *)

val layout : t -> Var.layout

val dump : t -> (Op.addr * Op.value) list
(** Cells that have been touched, with their current values (debugging). *)

val fingerprint : t -> (Op.addr * Op.value * Op.pid list) list
(** Canonical summary of everything future operations can observe: each
    cell's value plus the processes holding a valid load-link on it, in
    address order, with cells indistinguishable from their initial state
    omitted.  Two memories with equal fingerprints respond identically to
    every subsequent operation sequence.  Building the list walks every
    touched cell; the explorer hashes with {!fp_hash} and packs the same
    cells through {!fold_observable}, never materializing it. *)

val fold_observable :
  (Op.addr -> Op.value -> Op.pid list -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_observable f t init] folds [f addr value links] over exactly the
    cells {!fingerprint} lists, in the same (address) order, [links] being
    the ascending pids holding a valid load-link.  It builds no
    fingerprint list, and a cell without links passes [[]], so the
    explorer packs its dedup keys from it directly. *)

val fp_hash : t -> int
(** Running hash of the behavioral {!fingerprint}, maintained incrementally
    (an O(1) delta per {!apply}), so reading it is constant-time.  Equal
    fingerprints always hash equally; unequal fingerprints may collide, so
    a hash match must be confirmed exactly: by {!same_fingerprint}, or by
    comparing what {!fold_observable} yields. *)

val same_fingerprint : t -> t -> bool
(** Whether the two stores (over the same layout) have equal behavioral
    {!fingerprint}s — decided by direct comparison of the cell maps, with
    fresh-cell elision, without building either list.  An exact
    confirmation of an {!fp_hash} match. *)
