(* Test-and-test-and-set: spin reading until the flag looks free, then
   attempt the test-and-set.

   In the CC model the read spin is served from the local cache, so a waiting
   process incurs RMRs only when the flag actually changes — the simplest
   illustration of why caches make shared spin variables cheap (paper,
   Sec. 1).  In the DSM model the read spin is still remote and the lock is
   as bad as plain TAS, which the lock-comparison experiment (E7) shows. *)

open Smr
open Program.Syntax

let name = "ttas"

let primitives = [ Op.Fetch_and_phi ]

type t = { flag : bool Var.t }

let create ctx ~n:_ =
  { flag = Var.Ctx.bool ctx ~name:"ttas.flag" ~home:Var.Shared false }

let acquire t _p =
  Program.repeat_until
    (let* () = Program.await t.flag not in
     let+ taken = Program.test_and_set t.flag in
     not taken)

let release t _p = Program.write t.flag false

(* Lint claims: the read-spin still targets the shared flag — cheap in CC,
   remote and unbounded in DSM (the model sensitivity this lock exists to
   show). *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 1 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Rmr 1; refills = 0 } }) ] }
