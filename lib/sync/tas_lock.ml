(* Test-and-set spinlock: the classical non-local-spin baseline.

   Every contender spins with test-and-set directly on the shared flag, so
   under contention each spin iteration is an RMR in both models (and on a
   real machine, a coherence storm).  This is the "unbounded RMR complexity"
   end of the Section 3 landscape. *)

open Smr
open Program.Syntax

let name = "tas"

let primitives = [ Op.Fetch_and_phi ]

type t = { flag : bool Var.t }

let create ctx ~n:_ =
  { flag = Var.Ctx.bool ctx ~name:"tas.flag" ~home:Var.Shared false }

let acquire t _p =
  Program.repeat_until
    (let+ taken = Program.test_and_set t.flag in
     not taken)

let release t _p = Program.write t.flag false

(* Lint claims: the spin TASes the shared flag, so waiting is remote and
   RMR-unbounded in DSM; release is one remote write. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 0 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Rmr 1; refills = 0 } }) ] }
