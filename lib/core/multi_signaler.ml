(* Section 7, "many waiters not fixed in advance, many signalers": reduce to
   the one-signaler case by electing a leader among the signalers.

   The functor wraps any polling algorithm.  Signal() joins an election;
   the winner runs the inner Signal() and then raises a completion flag,
   while losers await that flag before returning.  The losers' wait is what
   keeps the specification honest: a Signal() call may only complete once
   the signal is actually observable, otherwise a later Poll() returning
   false would violate Specification 4.1 ("no call to Signal() completed
   before this call to Poll() began"). *)

open Smr
open Program.Syntax

module Make (Inner : Signaling.POLLING) = struct
  let name = Inner.name ^ "+multi-sig"

  let description =
    "signalers elect a leader that runs " ^ Inner.name
    ^ "'s Signal(); losers wait for its completion (Sec. 7)"

  let primitives =
    List.sort_uniq compare (Op.Fetch_and_phi :: Inner.primitives)

  let flexibility = { Inner.flexibility with max_signalers = None }

  type t = {
    inner : Inner.t;
    election : Sync.Leader_election.t;
    completed : bool Var.t;
  }

  let create ctx (cfg : Signaling.config) =
    { inner = Inner.create ctx cfg;
      election = Sync.Leader_election.create ctx ~n:cfg.Signaling.n;
      completed = Var.Ctx.bool ctx ~name:"sig_done" ~home:Var.Shared false }

  let poll t p = Inner.poll t.inner p

  let signal t p =
    let* leader = Sync.Leader_election.elect t.election p in
    if leader = p then
      let* () = Inner.signal t.inner p in
      Program.write t.completed true
    else
      (* Busy-wait on the shared completion flag: remote in DSM, cached in
         CC.  Terminating under fair schedules, as blocking solutions are
         allowed to be. *)
      Program.await t.completed Fun.id
end

(* Lint claims for [Make]: Poll() is the inner algorithm's; Signal() adds
   the election TAS and, for losers, a busy-wait on the shared completion
   flag — remote spinning by design (Specification 4.1 forbids returning
   before the signal is observable). *)
let claims ~inner ~n =
  Analysis.Claims.
    { single_writer = inner.Analysis.Claims.single_writer;
      calls =
        [ ("signal", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = n + 1 } });
          ("poll", Analysis.Claims.call inner "poll") ] }
