(* Section 7, blocking semantics with waiters and signaler not fixed:
   reduce to the single-waiter case through leader election.

   "The problem can be reduced to the single-waiter case by having the
   waiters elect a leader, which learns about the signal and then ensures
   that the signal is propagated to the remaining waiters."  Here:

   - waiters elect a leader (losers spin locally; see
     {!Sync.Leader_election} for the documented substitution of [13]);
   - the leader plays the single unknown waiter of [Dsm_single_waiter],
     re-running its Poll() until it returns true — after the first poll
     this spins on the leader's own module;
   - the leader then broadcasts completion into per-process cells homed at
     their owners, on which the followers spin locally.

   Follower cost is O(1) RMRs in both models; the leader pays O(N) for the
   broadcast (the paper's [12]-based version is O(1) per process; DESIGN.md
   records the simplification).  The solution is terminating, not
   wait-free — blocking semantics permit exactly that. *)

open Smr
open Program.Syntax

let name = "dsm-leader"

let description =
  "blocking semantics: waiters elect a leader that plays the single-waiter \
   protocol and fans the signal out (Sec. 7)"

let primitives = [ Op.Reads_writes; Op.Fetch_and_phi (* election TAS *) ]

let flexibility = Signaling.any_flexibility

type t = {
  n : int;
  election : Sync.Leader_election.t;
  single : Dsm_single_waiter.t;
  led : bool Var.t array; (* led.(i) homed at module i: leader's fan-out *)
}

let create ctx (cfg : Signaling.config) =
  { n = cfg.Signaling.n;
    election = Sync.Leader_election.create ctx ~n:cfg.Signaling.n;
    single = Dsm_single_waiter.create ctx cfg;
    led =
      Var.Ctx.bool_array ctx ~name:"led"
        ~home:(fun i -> Var.Module i)
        cfg.Signaling.n
        (fun _ -> false) }

let signal t p = Dsm_single_waiter.signal t.single p

let wait t p =
  let* leader = Sync.Leader_election.elect t.election p in
  if leader = p then
    (* The leader is the one waiter the single-waiter protocol serves. *)
    let* () = Program.repeat_until (Dsm_single_waiter.poll t.single p) in
    Program.for_ 0 (t.n - 1) (fun i -> Program.write t.led.(i) true)
  else Program.await t.led.(p) Fun.id

(* Lint claims: blocking semantics with every busy-wait local — election
   losers spin on their own announce cell, the leader polls its own
   registered/V cells, non-leaders block on their own led cell.  Wait()'s
   worst acyclic cost is the winning path: election TAS + n-1 announce
   fan-out + the W/S registration + n-1 led fan-out = 2n+1. *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "registered"; "S"; "V" ];
      calls =
        [ ("signal", { spin = No_spin; dsm_rmrs = Rmr 3; cc_amortized = Amortized { steady = Rmr 2; refills = 1 } });
          ("wait", { spin = Local_spin; dsm_rmrs = Rmr ((2 * n) + 1); cc_amortized = Amortized { steady = Rmr ((3 * n) + 1); refills = n - 1 } }) ] }
