(* Anderson's array queue lock [4]: a Fetch-And-Increment ticket dispenser
   and a circular array of "has-lock" flags.

   Each contender draws a ticket, spins on its own array slot, and on release
   passes the baton to the next slot.  In the CC model each process spins on
   a cached copy of its slot and incurs O(1) RMRs per passage.  In the DSM
   model the slots live in fixed modules unrelated to whoever draws them, so
   the spin is generally remote — Anderson's lock is local-spin for CC only,
   one of the model-sensitivity examples behind the paper's Section 1
   discussion. *)

open Smr
open Program.Syntax

let name = "anderson"

let primitives = [ Op.Fetch_and_phi ]

type t = {
  n : int;
  ticket : int Var.t;
  has_lock : bool Var.t array; (* slot i homed at module i *)
  my_slot : int Var.t array; (* per-process slot memo, homed locally *)
}

let create ctx ~n =
  { n;
    ticket = Var.Ctx.int ctx ~name:"anderson.ticket" ~home:Var.Shared 0;
    has_lock =
      Var.Ctx.bool_array ctx ~name:"anderson.has_lock"
        ~home:(fun i -> Var.Module i)
        n
        (fun i -> i = 0);
    my_slot =
      Var.Ctx.int_array ctx ~name:"anderson.my_slot"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> 0) }

let acquire t p =
  let* ticket = Program.fetch_and_increment t.ticket in
  let slot = ticket mod t.n in
  let* () = Program.write t.my_slot.(p) slot in
  Program.await t.has_lock.(slot) Fun.id

let release t p =
  let* slot = Program.read t.my_slot.(p) in
  let* () = Program.write t.has_lock.(slot) false in
  Program.write t.has_lock.((slot + 1) mod t.n) true

(* Lint claims: slots are homed independently of who draws them, so the
   per-slot spin is remote in DSM.  Only its owner writes my_slot[p];
   has_lock slots are handed around and multi-written.  Release touches at
   most two has_lock slots remotely. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "anderson.my_slot" ];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 3; refills = 3 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 2; refills = 0 } }) ] }
