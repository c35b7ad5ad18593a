(** The signaling problem (paper, Section 4).

    Signalers must make waiters aware that an event occurred.  With polling
    semantics a waiter calls [Poll()], which reports whether the signal has
    been issued; with blocking semantics it calls [Wait()], which returns
    only once some [Signal()] has begun.  {!check_polling} and
    {!check_blocking} verify Specification 4.1 over a recorded history. *)

open Smr

val signal_label : string
val poll_label : string
val wait_label : string

(** Which processes may play which role in a run.  The problem dimensions of
    Section 4 — how many waiters/signalers, whether their identities are
    fixed in advance — live here and in each algorithm's {!flexibility}. *)
type config = {
  n : int;
  waiters : Op.pid list;
  signalers : Op.pid list;
}

val config : n:int -> waiters:Op.pid list -> signalers:Op.pid list -> config

(** The problem variant (Sections 4 and 7) an algorithm solves. *)
type flexibility = {
  waiters_fixed : bool;
      (** the algorithm must know the exact waiter set at creation *)
  max_waiters : int option;  (** e.g. [Some 1] for the single-waiter variant *)
  signaler_fixed : bool;
      (** the signaler's identity must be known at creation *)
  max_signalers : int option;
}

val any_flexibility : flexibility
(** No restrictions: the hardest variant of Section 4 (waiters and signaler
    not fixed in advance). *)

(** A solution with polling semantics. *)
module type POLLING = sig
  val name : string
  val description : string
  val primitives : Op.primitive_class list
  val flexibility : flexibility

  type t

  val create : Var.Ctx.ctx -> config -> t
  val signal : t -> Op.pid -> unit Program.t
  val poll : t -> Op.pid -> bool Program.t
end

(** A solution with blocking semantics. *)
module type BLOCKING = sig
  val name : string
  val description : string
  val primitives : Op.primitive_class list
  val flexibility : flexibility

  type t

  val create : Var.Ctx.ctx -> config -> t
  val signal : t -> Op.pid -> unit Program.t
  val wait : t -> Op.pid -> unit Program.t
end

module Blocking_of_polling (P : POLLING) : BLOCKING with type t = P.t
(** [Wait()] as repeated execution of [Poll()] (Section 7). *)

(** {1 Specification 4.1 checking} *)

type violation =
  | Poll_true_without_signal of History.call
  | Poll_false_after_signal of History.call * History.call
  | Wait_returned_without_signal of History.call

val pp_violation : violation Fmt.t

val check_polling : History.call list -> violation list
(** Both clauses of Specification 4.1: a [Poll] returning true must follow
    the start of some [Signal]; a [Poll] returning false must not follow a
    completed [Signal]. *)

val check_blocking : History.call list -> violation list
(** A completed [Wait] must follow the start of some [Signal]. *)

val polling_ok : History.call list -> bool
(** Verdict-equivalent to [check_polling calls = []], in two O(calls)
    passes with no violation list built and in any list order — the form
    the model checker evaluates, as {!Smr.Explore.check}'s [~property], at
    every completion of every explored interleaving.  Use [check_polling]
    when the actual violations are to be reported. *)

val blocking_ok : History.call list -> bool
(** Verdict-equivalent to [check_blocking calls = []]; see
    {!polling_ok}. *)

(** {1 Instantiation} *)

val validate_config : flexibility -> config -> (unit, string) result
(** Rejects, with a descriptive message: waiter or signaler pids outside
    [0, n), duplicate entries within either role list, and role counts
    beyond the algorithm's [flexibility] bounds. *)

val at_least : int -> string -> int -> (unit, string) result
(** [at_least lo name v] is [Ok ()] when [v >= lo], else an error reading
    ["<name> must be >= <lo>, got <v>"]: the count check shared by the
    validators of the scenarios that instantiate an algorithm over a
    command line's parameters ([name] is the flag, e.g. ["-n"]). *)

(** An algorithm instance with its typed state closed over, exposing the
    untyped programs the simulator consumes (Poll's Boolean is 0/1). *)
type instance = {
  i_name : string;
  i_primitives : Op.primitive_class list;
  i_poll : Op.pid -> Op.value Program.t;
  i_signal : Op.pid -> Op.value Program.t;
}

val instantiate : (module POLLING) -> Var.Ctx.ctx -> config -> instance
(** Raises [Invalid_argument] when the configuration violates the
    algorithm's {!flexibility}. *)

type blocking_instance = {
  b_name : string;
  b_wait : Op.pid -> Op.value Program.t;
  b_signal : Op.pid -> Op.value Program.t;
}

val instantiate_blocking :
  (module BLOCKING) -> Var.Ctx.ctx -> config -> blocking_instance
