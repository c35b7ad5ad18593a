(** Fingerprint interning: dense small-integer ids for hash-plus-exact-key
    identified values.

    {!Smr.Explore} identifies each search state by an incrementally
    maintained integer hash plus an exact key, a packed byte string.  It
    also interns the label strings and response lists that key refers
    to, and hash-conses its sleep-set antichains.  An interning
    table turns that pair into a small int id, so the visited-state table
    and its sleep-set entries hash and compare on ints; the exact key is
    consulted only when two states share a hash — a revisit or a genuine
    collision.  Distinct keys always receive distinct ids, so interning
    never affects soundness, only constant factors. *)

type 'a t

val create : ?size:int -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** An empty table.  [equal] decides key identity exactly; it is called
    only on keys whose hashes coincide. *)

val intern : 'a t -> hash:int -> 'a -> int
(** The id of [key]: the id assigned on its first interning (ids are
    dense, starting at 0, in first-seen order).  Two keys receive the same
    id iff they have the same [hash] {e and} are [equal]. *)

val intern_with :
  'a t -> hash:int -> equal:('a -> 'p -> bool) -> make:('p -> 'a) -> 'p -> int
(** Probe-then-materialize interning: the id of the key that [probe]
    stands for, where [equal key probe] decides whether a stored key with
    the same [hash] is that key, and [make probe] builds it — called only
    when no stored key matches, i.e. when a new id is assigned.  The
    explorer probes with a state's packed key in scratch bytes and copies
    it out to a string only on a miss.  [intern t ~hash key] is
    [intern_with t ~hash ~equal:(the table's equal) ~make:Fun.id key]. *)

val key : 'a t -> int -> 'a
(** The key interned under the id.  Raises [Invalid_argument] on an id
    not yet assigned. *)

val distinct : 'a t -> int
(** Number of distinct keys interned so far (= the next id). *)

val collisions : 'a t -> int
(** Number of distinct keys that landed in an already-occupied hash
    bucket — a diagnostic for hash quality, not a correctness signal. *)

val resizes : 'a t -> int
(** Times the slot array has doubled (load factor kept under 1/2); a
    sizing diagnostic — seed [create ~size] to amortize it away. *)

val slots : 'a t -> int
(** Current slot-array capacity (a power of two).  Together with
    {!distinct} this gives the occupancy [distinct /. slots]. *)
