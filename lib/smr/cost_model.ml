(* Cost models: classify each executed memory operation as local or remote
   (an RMR) and count the interconnect messages it generates (Sec. 8).

   A model is persistent codata: accounting a step returns the successor
   model.  Models never influence execution — the values read and written are
   model-independent — so a single recorded history can be re-accounted under
   several models (used by the cross-model experiment E5). *)

type step_cost = { rmr : bool; messages : int }

type t = {
  name : string;
  account :
    trace:(Obs.Trace.t * int) option ->
    Op.pid -> Op.invocation -> wrote:bool -> t * step_cost;
  predict : Op.pid -> Op.invocation -> bool option;
      (* [Some b]: the next application of this operation by this process is
         an RMR iff [b], independent of its outcome.  [None]: depends on
         whether the operation turns out to be nontrivial. *)
}

let name t = t.name
let account ?trace t pid inv ~wrote = t.account ~trace pid inv ~wrote
let predict t pid inv = t.predict pid inv

(* Wrap an explicit-state model.  The wrapper for a given state is built
   once and reused whenever accounting leaves the state physically
   unchanged — on allocation-sensitive paths (the explorer steps through
   millions of cache hits) a no-op step then allocates no new model, only
   its result pairs and lookups: 8 to 10 minor words per hit on an
   unbounded [Cc] cache.  State functions should therefore return their
   input state physically ([==]) whenever a step changes nothing. *)
let make_stateful ~name ~account ~predict s0 =
  let rec wrap s =
    let rec self =
      { name;
        account =
          (fun ~trace pid inv ~wrote ->
            let s', cost = account s ~trace pid inv ~wrote in
            ((if s' == s then self else wrap s'), cost));
        predict = (fun pid inv -> predict s pid inv) }
    in
    self
  in
  wrap s0

(* DSM (paper, Sec. 2): an access is an RMR iff the address is homed in
   another processor's memory module.  Classification is purely static, which
   is what lets the adversary peek at "next RMRs" exactly. *)
let dsm layout =
  let is_rmr pid inv =
    match Var.layout_home layout (Op.addr_of inv) with
    | Var.Module owner -> owner <> pid
    | Var.Shared -> true
  in
  let rec t =
    { name = "dsm";
      account =
        (fun ~trace:_ pid inv ~wrote:_ ->
          let rmr = is_rmr pid inv in
          (t, { rmr; messages = (if rmr then 1 else 0) }));
      predict = (fun pid inv -> Some (is_rmr pid inv)) }
  in
  t

let local = { rmr = false; messages = 0 }
