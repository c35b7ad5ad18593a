(* Process code as a pure value: a free monad over one memory operation per
   step (paper, Sec. 2: "each step entails a memory access and some local
   computation").

   Representing programs as values rather than running threads is what makes
   the Section 6 adversary implementable: the scheduler can pattern-match on a
   process's continuation to learn its next memory operation without executing
   it, snapshot the whole machine in O(1), and replay histories to erase
   processes (Lemma 6.7). *)

type 'a t =
  | Return of 'a
  | Step of Op.invocation * (Op.value -> 'a t)

let return x = Return x

let rec bind m f =
  match m with
  | Return x -> f x
  | Step (inv, k) -> Step (inv, fun v -> bind (k v) f)

let rec map f = function
  | Return x -> Return (f x)
  | Step (inv, k) -> Step (inv, fun v -> map f (k v))

(* A bool or unit program as a value program, for free.  OCaml represents
   [false], [true] and [()] as the immediates 0, 1 and 0 (the stdlib's
   [Bool.to_int] is ["%identity"] for this reason), so a [bool t] or a
   [unit t] already is, word for word, the [Op.value t] that
   [map Bool.to_int] or [map (fun () -> 0)] rebuilds node by node, and a
   pending call keeps none of [map]'s closures.  The cast is sound only
   while [Op.value] is [int], which the witness below checks at compile
   time. *)
let _ : (Op.value, int) Type.eq = Type.Equal
let of_bool : bool t -> Op.value t = Obj.magic
let of_unit : unit t -> Op.value t = Obj.magic

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

open Syntax

(* Static continuations: they capture nothing, so a step built with one
   allocates no closure; [Return true], [Return false] and [Return ()] are
   shared constants. *)
let ret_true = Return true
let ret_false = Return false
let ret_unit (_ : Op.value) = Return ()
let ret_value (v : Op.value) = Return v
let ret_is_one r = if r = 1 then ret_true else ret_false
let ret_nonzero v = if v <> 0 then ret_true else ret_false

let step inv = Step (inv, ret_value)

(* Typed operations over Var handles: each is one [Step], with a static
   continuation or the single closure that decodes through the handle. *)

(* A flag's read takes the static continuation: a poll is often a single
   flag read, and when a sweep over many waiters holds each poll across a
   minor collection, every closure it carries is promoted. *)
let read (type a) (var : a Var.t) : a t =
  let inv = Op.Read (Var.addr var) in
  match Var.decoding var with
  | Var.Flag -> Step (inv, ret_nonzero)
  | Var.Decoder -> Step (inv, fun v -> Return (Var.decode var v))

let write var x = Step (Op.Write (Var.addr var, Var.encode var x), ret_unit)

let cas var ~expected ~update =
  Step
    ( Op.Cas (Var.addr var, Var.encode var expected, Var.encode var update),
      ret_is_one )

let load_linked var =
  Step (Op.Ll (Var.addr var), fun v -> Return (Var.decode var v))

let store_conditional var x =
  Step (Op.Sc (Var.addr var, Var.encode var x), ret_is_one)

let fetch_and_add var delta = Step (Op.Faa (Var.addr var, delta), ret_value)

let fetch_and_increment var = fetch_and_add var 1

let fetch_and_store var x =
  Step (Op.Fas (Var.addr var, Var.encode var x), fun v -> Return (Var.decode var v))

let test_and_set var = Step (Op.Tas (Var.addr var), ret_nonzero)

(* Control flow. *)

let rec seq = function
  | [] -> Return ()
  | m :: rest ->
    let* () = m in
    seq rest

let rec for_ lo hi body =
  if lo > hi then Return ()
  else
    let* () = body lo in
    for_ (lo + 1) hi body

let when_ cond body = if cond then body else Return ()

let rec repeat_until body =
  let* stop = body in
  if stop then Return () else repeat_until body

(* Busy-wait until [read var] satisfies [cond]; the canonical spin loop.
   The loop body is rebuilt lazily, so unbounded waiting costs no memory. *)
let await var cond =
  repeat_until
    (let+ v = read var in
     cond v)

let rec length_exn ?(fuel = 1_000_000) ~respond m =
  (* Number of steps [m] takes when responses are produced by [respond];
     raises if [fuel] is exhausted.  Used by tests to check wait-freedom
     bounds of straight-line programs. *)
  match m with
  | Return _ -> 0
  | Step (inv, k) ->
    if fuel = 0 then invalid_arg "Program.length_exn: out of fuel"
    else 1 + length_exn ~fuel:(fuel - 1) ~respond (k (respond inv))

let next_invocation = function
  | Return _ -> None
  | Step (inv, _) -> Some inv
