(* Section 7, "many waiters, fixed in advance": per-waiter flags.

   V[i] is a Boolean homed in process i's module; Poll() by p_i reads V[i]
   (always local in DSM — waiters incur zero RMRs), and Signal() writes V[j]
   for every fixed waiter p_j, costing the signaler O(W) RMRs worst-case.
   As the paper notes, amortized RMR complexity exceeds O(1) when the
   signaler pays W RMRs but only o(W) waiters have participated — the
   precise failure mode the Section 6 adversary industrializes, and the
   reason [Dsm_broadcast] (this algorithm with W = N) is the adversary's
   canonical read/write victim. *)

open Smr

let name = "dsm-fixed"

let description =
  "per-waiter local flags, signaler writes each fixed waiter (Sec. 7); \
   waiters O(0), signaler O(W) RMRs in DSM"

let primitives = [ Op.Reads_writes ]

let flexibility = { Signaling.any_flexibility with waiters_fixed = true }

type t = { targets : Op.pid list; v : bool Var.vec }

(* Shared with [Dsm_broadcast]: flags for everyone (a vec, so broadcast
   instantiates at n = 10^6), signal writes the given target list. *)
let create_targets ctx ~n ~targets =
  { targets;
    v =
      Var.Ctx.bool_vec ctx ~name:"V"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let create ctx (cfg : Signaling.config) =
  create_targets ctx ~n:cfg.Signaling.n ~targets:cfg.Signaling.waiters

let signal t _p =
  (* Built lazily, one write per target as the program unfolds: a broadcast
     to 10^6 targets must not materialize a million-element program list up
     front. *)
  let rec go = function
    | [] -> Program.return ()
    | j :: rest ->
      Program.Syntax.(
        let* () = Program.write (Var.vec_get t.v j) true in
        go rest)
  in
  go t.targets

let poll t p = Program.read (Var.vec_get t.v p)

(* Lint claims: with the waiter set fixed at creation, Signal() writes just
   the declared targets' flags (at most n-1 remote) and Poll() is one local
   read — the local-spin baseline the harder variants are measured
   against. *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "V" ];
      calls =
        [ ("signal", { spin = No_spin; dsm_rmrs = Rmr (n - 1); cc_amortized = Amortized { steady = Rmr (n - 1); refills = 0 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 0; cc_amortized = Amortized { steady = Rmr 0; refills = 1 } }) ] }
