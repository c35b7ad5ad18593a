(** Cache-coherent cost models (paper, Sections 2 and 8).

    The paper's CC upper bounds rely on a "loose" model: after a process
    reads a location, further reads are local until another process performs
    a nontrivial operation on it.  That is the behavior of an ideal
    invalidation cache, implemented by {!Write_through}.  {!Write_back}
    additionally makes repeated writes by the exclusive owner local, and
    {!Write_update} models the LFCU machines discussed in Section 3 (remote
    copies are updated in place; a failed comparison primitive applied to a
    cached copy is local).

    Message accounting follows Section 8's discussion of the "exchange rate"
    between RMRs and communication: a {!Bus} broadcasts every coherence
    action (one message); a {!Directory_precise} sends one message per remote
    copy; a {!Directory_limited} with a [k]-entry sharer list degenerates to
    broadcast once a line has more than [k] sharers. *)

type protocol = Write_through | Write_back | Write_update

val protocol_name : protocol -> string

val protocols : protocol list
(** Every protocol, in declaration order. *)

type interconnect = Bus | Directory_precise | Directory_limited of int

val interconnect_name : interconnect -> string

(** What the coherence protocol does with one access: the only protocol
    table.  {!model}, {!Flat_sim} and the amortized lint all obey it, so a
    new protocol is one constructor, one {!decide} case and one
    {!protocols} entry. *)
type access =
  | Hit  (** local; the line's recency is refreshed *)
  | Hit_in_place  (** local; the cache is untouched (LFCU) *)
  | Miss  (** fetch the line, downgrading a dirty owner elsewhere *)
  | Round_trip  (** a failed mutation's one-message round trip, then a refill *)
  | Invalidate  (** write, invalidating every remote copy *)
  | Take_ownership  (** as [Invalidate], and the writer owns the line *)
  | Update  (** write, updating the remote copies in place *)

val decide :
  protocol -> Op.invocation -> wrote:bool -> has_copy:bool -> owned:bool ->
  access
(** [wrote]: the operation was nontrivial; [has_copy]: the process holds a
    valid copy; [owned]: it owns the line (write-back).  Allocates
    nothing. *)

val is_rmr : access -> bool
(** All but {!Hit} and {!Hit_in_place}. *)

val coherence_messages : interconnect -> n:int -> m:int -> int
(** Messages reaching [m] remote copies on an [n]-processor machine. *)

val miss_messages : dirty_elsewhere:bool -> int
(** A miss's fetch, plus a write-back from a dirty owner elsewhere. *)

val model :
  ?protocol:protocol ->
  ?interconnect:interconnect ->
  ?capacity:int ->
  n:int ->
  unit ->
  Cost_model.t
(** A fresh CC cost model for an [n]-processor machine with empty caches.
    Defaults: [Write_through] over a [Bus] with unbounded ("ideal") caches.
    [capacity] bounds each processor's cache to that many lines with LRU
    eviction — modeling Section 8's remark that real caches drop data
    spuriously, so the ideal-cache RMR bounds are underestimates (E12).
    Accounting a step with a trace ({!Cost_model.account}'s [trace])
    emits every coherence transition it makes (fetch, invalidate, update,
    write-through round trip) as an {!Obs.Event.Cache} event at the
    step's tick. *)
