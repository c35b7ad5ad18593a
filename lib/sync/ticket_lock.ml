(* The ticket lock: Fetch-And-Increment dispenser plus a now-serving
   counter everyone spins on.

   FIFO-fair and simple, but all waiters share one spin variable: every
   hand-off invalidates every waiting cache (O(N) coherence traffic per
   passage in CC) and in DSM the spin is plainly remote.  Sits between
   TAS and the queue locks in the Section 3 landscape. *)

open Smr
open Program.Syntax

let name = "ticket"

let primitives = [ Op.Fetch_and_phi ]

type t = { next_ticket : int Var.t; now_serving : int Var.t }

let create ctx ~n:_ =
  { next_ticket = Var.Ctx.int ctx ~name:"ticket.next" ~home:Var.Shared 0;
    now_serving = Var.Ctx.int ctx ~name:"ticket.serving" ~home:Var.Shared 0 }

let acquire t _p =
  let* ticket = Program.fetch_and_increment t.next_ticket in
  Program.await t.now_serving (fun s -> s = ticket)

let release t _p =
  (* Only the holder writes now_serving, so read-then-write is safe. *)
  let* s = Program.read t.now_serving in
  Program.write t.now_serving (s + 1)

(* Lint claims: waiting reads the shared now-serving counter (remote in
   DSM); release reads and bumps it (2 RMRs). *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 1; refills = 1 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 1; refills = 1 } }) ] }
