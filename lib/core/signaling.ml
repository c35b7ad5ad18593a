(* The signaling problem (paper, Section 4).

   Signalers must make waiters aware that an event has occurred.  With
   polling semantics a waiter calls Poll(), which returns whether the signal
   has been issued; with blocking semantics it calls Wait(), which returns
   only after some Signal() has begun.  Specification 4.1 pins down the
   safety properties; [check_polling] and [check_blocking] verify them over
   a recorded history's call intervals.

   The problem dimensions of Section 4 — how many waiters/signalers, whether
   their IDs are fixed in advance — are captured by [config] and by each
   algorithm's [flexibility] declaration, so the scenario runner can refuse
   to run an algorithm outside the variant it solves. *)

open Smr

let signal_label = "signal"
let poll_label = "poll"
let wait_label = "wait"

type config = {
  n : int; (* total processes in the system *)
  waiters : Op.pid list; (* processes that may act as waiters *)
  signalers : Op.pid list; (* processes that may call Signal() *)
}

let config ~n ~waiters ~signalers = { n; waiters; signalers }

(* Which problem variant (Sec. 4 / Sec. 7) an algorithm solves. *)
type flexibility = {
  waiters_fixed : bool;
      (* the algorithm must be told the exact waiter set at creation *)
  max_waiters : int option; (* e.g. Some 1 for the single-waiter algorithm *)
  signaler_fixed : bool;
      (* the signaler's identity must be known at creation *)
  max_signalers : int option;
}

let any_flexibility =
  { waiters_fixed = false;
    max_waiters = None;
    signaler_fixed = false;
    max_signalers = None }

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

(* Any polling solution yields a blocking one: Wait() re-runs the Poll()
   code until it returns true (Sec. 7: "the blocking solution can be
   achieved easily by implementing Wait() via repeated execution of the code
   for Poll()"). *)
module Blocking_of_polling (P : POLLING) : BLOCKING with type t = P.t = struct
  let name = P.name ^ "+spin"

  let description =
    P.description ^ " (blocking wrapper: Wait re-runs Poll until true)"

  let primitives = P.primitives

  let flexibility = P.flexibility

  type t = P.t

  let create = P.create

  let signal = P.signal

  let wait t p = Program.repeat_until (P.poll t p)
end

(* --- Specification 4.1 checking --- *)

type violation =
  | Poll_true_without_signal of History.call
      (* a Poll() returned true before any Signal() began *)
  | Poll_false_after_signal of History.call * History.call
      (* a Poll() returned false although a Signal() completed before it
         began; second component is the offending Signal() *)
  | Wait_returned_without_signal of History.call

let pp_violation ppf = function
  | Poll_true_without_signal c ->
    Fmt.pf ppf "%a returned true before any Signal() began" History.pp_call c
  | Poll_false_after_signal (c, s) ->
    Fmt.pf ppf "%a returned false although %a completed before it began"
      History.pp_call c History.pp_call s
  | Wait_returned_without_signal c ->
    Fmt.pf ppf "%a returned before any Signal() began" History.pp_call c

let is_signal (c : History.call) =
  (* labels are interned constants in practice, so the physical check
     almost always decides *)
  c.History.c_label == signal_label
  || String.equal c.History.c_label signal_label

let earliest_signal_start calls =
  List.fold_left
    (fun acc c ->
      if is_signal c then
        match acc with
        | None -> Some c.History.c_started
        | Some t -> Some (min t c.History.c_started)
      else acc)
    None calls

let check_polling calls =
  (* computed once for the whole history, not once per poll call *)
  let earliest_signal = earliest_signal_start calls in
  let signal_begun_before t =
    match earliest_signal with Some s -> s < t | None -> false
  in
  let completed_signal_before t =
    List.find_opt
      (fun c ->
        is_signal c
        && match c.History.c_finished with Some f -> f < t | None -> false)
      calls
  in
  List.filter_map
    (fun c ->
      if c.History.c_label <> poll_label then None
      else
        match (c.History.c_result, c.History.c_finished) with
        | Some 1, Some finished ->
          if signal_begun_before finished then None
          else Some (Poll_true_without_signal c)
        | Some 0, Some _ -> (
          match completed_signal_before c.History.c_started with
          | Some s -> Some (Poll_false_after_signal (c, s))
          | None -> None)
        | _ -> None)
    calls

(* Boolean fast paths for the model checker, which evaluates the
   specification at every completion of every explored interleaving:
   verdict-equivalent to [check_polling = []] / [check_blocking = []]
   (each violation constructor maps to one clause below) but two O(calls)
   passes with no violation list built and no dependence on list order.
   The quadratic [completed_signal_before] scan collapses to a comparison
   against the earliest completed-signal finish time: a completed signal
   precedes a poll's start iff the earliest-finishing one does. *)

(* Earliest Signal() start and earliest Signal() finish ([max_int] when
   there is none). *)
let rec signal_extents es ef = function
  | [] -> (es, ef)
  | c :: rest ->
    if is_signal c then
      signal_extents
        (min es c.History.c_started)
        (match c.History.c_finished with Some f -> min ef f | None -> ef)
        rest
    else signal_extents es ef rest

let rec polls_ok es ef = function
  | [] -> true
  | c :: rest ->
    (let l = c.History.c_label in
     (not (l == poll_label || String.equal l poll_label))
     ||
     match (c.History.c_result, c.History.c_finished) with
     | Some 1, Some finished -> es < finished
     | Some 0, Some _ -> not (ef < c.History.c_started)
     | _ -> true)
    && polls_ok es ef rest

let polling_ok calls =
  let es, ef = signal_extents max_int max_int calls in
  polls_ok es ef calls

let rec waits_ok es = function
  | [] -> true
  | c :: rest ->
    (let l = c.History.c_label in
     (not (l == wait_label || String.equal l wait_label))
     ||
     match c.History.c_finished with
     | Some finished -> es < finished
     | None -> true)
    && waits_ok es rest

let blocking_ok calls =
  let es, _ = signal_extents max_int max_int calls in
  waits_ok es calls

let check_blocking calls =
  let earliest_signal = earliest_signal_start calls in
  let signal_begun_before t =
    match earliest_signal with Some s -> s < t | None -> false
  in
  List.filter_map
    (fun c ->
      if c.History.c_label <> wait_label then None
      else
        match c.History.c_finished with
        | Some finished when not (signal_begun_before finished) ->
          Some (Wait_returned_without_signal c)
        | _ -> None)
    calls

(* --- configuration validation --- *)

let at_least lo name v =
  if v < lo then Error (Printf.sprintf "%s must be >= %d, got %d" name lo v)
  else Ok ()

let validate_config (flex : flexibility) (cfg : config) =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let bounded role pids =
    match List.find_opt (fun p -> p < 0 || p >= cfg.n) pids with
    | Some p -> fail "%s pid %d out of range for %d process(es)" role p cfg.n
    | None -> Ok ()
  in
  let distinct role pids =
    (* pids are already range-checked, so a bit per pid suffices — the open
       system instantiates with k = 10^6 waiters, where the obvious
       List.mem scan is a quadratic startup cost. *)
    let seen = Bytes.make cfg.n '\000' in
    let rec dup = function
      | [] -> None
      | p :: rest ->
        if Bytes.get seen p = '\001' then Some p
        else begin
          Bytes.set seen p '\001';
          dup rest
        end
    in
    match dup pids with
    | Some p -> fail "%s pid %d listed more than once" role p
    | None -> Ok ()
  in
  let* () = bounded "waiter" cfg.waiters in
  let* () = bounded "signaler" cfg.signalers in
  let* () = distinct "waiter" cfg.waiters in
  let* () = distinct "signaler" cfg.signalers in
  match flex.max_waiters with
  | Some m when List.length cfg.waiters > m ->
    fail "algorithm supports at most %d waiter(s), %d configured" m
      (List.length cfg.waiters)
  | _ -> (
    match flex.max_signalers with
    | Some m when List.length cfg.signalers > m ->
      fail "algorithm supports at most %d signaler(s), %d configured" m
        (List.length cfg.signalers)
    | _ -> Ok ())

(* --- instantiation: close over the algorithm's typed state, exposing only
   the untyped programs the simulator consumes (Poll returns 0/1). --- *)

type instance = {
  i_name : string;
  i_primitives : Op.primitive_class list;
  i_poll : Op.pid -> Op.value Program.t;
  i_signal : Op.pid -> Op.value Program.t;
}

let instantiate (module A : POLLING) ctx cfg =
  (match validate_config A.flexibility cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Signaling.instantiate: " ^ msg));
  let t = A.create ctx cfg in
  { i_name = A.name;
    i_primitives = A.primitives;
    i_poll = (fun p -> Program.of_bool (A.poll t p));
    i_signal = (fun p -> Program.of_unit (A.signal t p)) }

type blocking_instance = {
  b_name : string;
  b_wait : Op.pid -> Op.value Program.t;
  b_signal : Op.pid -> Op.value Program.t;
}

let instantiate_blocking (module A : BLOCKING) ctx cfg =
  (match validate_config A.flexibility cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Signaling.instantiate_blocking: " ^ msg));
  let t = A.create ctx cfg in
  { b_name = A.name;
    b_wait = (fun p -> Program.of_unit (A.wait t p));
    b_signal = (fun p -> Program.of_unit (A.signal t p)) }
