(* Fischer's timing-based mutual exclusion — the classic algorithm of the
   semi-synchronous model the paper's Section 3 discusses (where, notably,
   the known CC/DSM separation runs in the opposite direction to this
   paper's: DSM O(1) vs CC Ω(log log N) [23]).

   One shared variable X and one timing assumption: between a process's
   consecutive steps at most Δ time passes.  To acquire: wait for X = NIL,
   write X := p, then DELAY for more than Δ — long enough that any process
   that read X = NIL before our write has already performed its own write —
   and re-check; if X is still p, the critical section is safe.  To
   release: X := NIL.

   Correctness NEEDS the timing assumption: under the [Semi_sync] policy
   with delay > delta the lock is mutual-exclusion safe; under an
   asynchronous schedule the delayed re-check can be stale and two
   processes enter together — experiment E11 exhibits both, which is the
   honest way to "run" a model-separation claim.

   The delay is implemented as [delay] reads of a variable homed at the
   caller: each step occupies at least one scheduling tick, so [delay]
   local steps span at least [delay] ticks.  In the DSM model the X-spin is
   remote (the O(1)-RMR semi-synchronous DSM algorithms of [23] are out of
   scope; DESIGN.md records the substitution). *)

open Smr
open Program.Syntax

let primitives = [ Op.Reads_writes ]

type t = {
  x : Op.pid option Var.t;
  pause : int Var.t array; (* pause.(i) homed at module i: delay scratch *)
  delay : int;
}

let create_timed ctx ~n ~delay =
  { x = Var.Ctx.pid_opt ctx ~name:"fischer.x" ~home:Var.Shared None;
    pause =
      Var.Ctx.int_array ctx ~name:"fischer.pause"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> 0);
    delay }

let delay_program t p =
  Program.for_ 1 t.delay (fun _ ->
      let* _ = Program.read t.pause.(p) in
      Program.return ())

let rec acquire t p =
  let* () = Program.await t.x (fun x -> x = None) in
  let* () = Program.write t.x (Some p) in
  let* () = delay_program t p in
  let* holder = Program.read t.x in
  if holder = Some p then Program.return () else acquire t p

let release t p =
  ignore p;
  Program.write t.x None

(* A LOCK instance with the delay fixed, for Lock_runner and E11. *)
let with_delay delay : (module Mutex_intf.LOCK) =
  (module struct
    let name = Printf.sprintf "fischer(d=%d)" delay

    let primitives = primitives

    type nonrec t = t

    let create ctx ~n = create_timed ctx ~n ~delay

    let acquire = acquire

    let release = release
  end)

(* Lint claims: the contention wait polls the single shared variable
   (remote in DSM); the timing delay only reads the process's own pause
   cell, which nobody ever writes.  Claims describe the packaged lock for
   any fixed delay. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "fischer.pause" ];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 1; refills = 1 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Rmr 1; refills = 0 } }) ] }
