(* The Section 5 algorithm: one shared Boolean.

   Signal() sets B; Poll() reads it.  Wait-free, reads and writes only, O(1)
   space.  Under the CC model a waiter's repeated polls are served from its
   cache and cost one RMR in total until the signaler's write invalidates
   the copy, plus one more to re-read — O(1) RMRs per process.  Under the
   DSM model the same code has unbounded RMR complexity: B lives in one
   module and every other process's poll is remote.  The cross-model
   experiment (E5) shows exactly this. *)

open Smr

let name = "cc-flag"

let description = "single shared Boolean (Sec. 5); O(1) RMR in CC, unbounded in DSM"

let primitives = [ Op.Reads_writes ]

let flexibility = Signaling.any_flexibility

type t = { flag : bool Var.t }

let create ctx (_ : Signaling.config) =
  { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false }

let signal t _p = Program.write t.flag true

let poll t _p = Program.read t.flag

(* Lint claims: the Section 5 headline — reads/writes only, wait-free (no
   busy-wait anywhere), one operation per call, and only the signaler ever
   writes the flag.  The amortized claims are the theorem itself, proved
   statically by the cache-lattice pass: Signal pays one RMR per call under
   any CC protocol, and a poller pays nothing in steady state — it re-reads
   only when an external write invalidates its cached copy, at most once
   per Signal ([refills = 1]). *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "B" ];
      calls =
        [ ("signal",
           { spin = No_spin;
             dsm_rmrs = Rmr 1;
             cc_amortized = Amortized { steady = Rmr 1; refills = 0 } });
          ("poll",
           { spin = No_spin;
             dsm_rmrs = Rmr 1;
             cc_amortized = Amortized { steady = Rmr 0; refills = 1 } }) ] }
