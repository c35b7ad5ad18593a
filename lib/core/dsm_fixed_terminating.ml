(* Section 7, "many waiters fixed in advance", terminating variant with O(1)
   amortized RMRs: the signaler waits for each fixed waiter to participate
   before writing its flag, so every RMR the signaler pays is matched by a
   participating waiter.

   part[i] is set by waiter i's first Poll(); Signal() awaits part[j] and
   only then writes V[j], for each fixed waiter j.  The paper sketches this
   construction in one sentence; note that the signaler's await of part[j]
   busy-waits on a cell homed at the waiter, which is remote — under the
   fair schedules of the experiments the wait is short (the waiter's first
   poll is two steps), but an adversarial scheduler could inflate it.  The
   solution is terminating, not wait-free, exactly as the paper requires:
   the wait-free version of this variant is impossible at O(1) amortized
   (Sec. 7, "For wait-free solutions ... impossible"), which experiment E3
   demonstrates by the contrast with [Dsm_fixed_waiters]. *)

open Smr
open Program.Syntax

let name = "dsm-fixed-term"

let description =
  "fixed waiters; signaler awaits each waiter's participation before \
   flagging it (Sec. 7); terminating, O(1) amortized RMRs"

let primitives = [ Op.Reads_writes ]

let flexibility = { Signaling.any_flexibility with waiters_fixed = true }

type t = {
  targets : Op.pid list;
  v : bool Var.t array; (* v.(i) homed at module i *)
  part : bool Var.t array; (* participation flags, homed at module i *)
}

let create ctx (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  { targets = cfg.Signaling.waiters;
    v =
      Var.Ctx.bool_array ctx ~name:"V" ~home:(fun i -> Var.Module i) n (fun _ -> false);
    part =
      Var.Ctx.bool_array ctx ~name:"part"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let poll t p =
  let* () = Program.write t.part.(p) true in
  Program.read t.v.(p)

let signal t _p =
  Program.seq
    (List.map
       (fun j ->
         let* () = Program.await t.part.(j) Fun.id in
         Program.write t.v.(j) true)
       t.targets)

(* Lint claims: Poll() is wait-free and fully local (own participation
   mark, own flag); Signal() busy-waits on each participant's part[j] cell
   — remote spinning, which is exactly the cost this terminating variant
   accepts to let waiters stop participating. *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "V"; "part" ];
      calls =
        [ ("signal", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr (n - 1); refills = n - 1 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 0; cc_amortized = Amortized { steady = Rmr 1; refills = 1 } }) ] }
