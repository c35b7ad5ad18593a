(* The read/write broadcast algorithm: [Dsm_fixed_waiters] with every
   process treated as a potential waiter.

   Because Signal() writes all N per-process flags unconditionally, the
   algorithm is correct for waiters whose IDs are NOT fixed in advance —
   the hard variant of Section 4 — while using only reads and writes.  It is
   therefore squarely inside the reach of Theorem 6.2, and indeed the
   Section 6 adversary forces it to N RMRs with O(1) participants: waiters
   are stable from their very first step (their poll is a local read), the
   goose chase erases each one just before the signaler's write reaches it,
   and the amortized cost N / k grows without bound.  Experiment E2. *)

open Smr

let name = "dsm-broadcast"

let description =
  "signaler blindly writes every process's local flag (reads/writes only); \
   amortized RMRs forced to Θ(N/k) by the Sec. 6 adversary"

let primitives = [ Op.Reads_writes ]

let flexibility = Signaling.any_flexibility

type t = Dsm_fixed_waiters.t

let create ctx (cfg : Signaling.config) =
  Dsm_fixed_waiters.create_targets ctx ~n:cfg.Signaling.n
    ~targets:(List.init cfg.Signaling.n Fun.id)

let signal = Dsm_fixed_waiters.signal

let poll = Dsm_fixed_waiters.poll

(* Lint claims: wait-free; Signal() pays one write per process (its own
   flag is local), Poll() reads only the caller's local flag.  The Θ(N/k)
   amortized cost of E2 is this n-1 worst case spread over k waiters. *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "V" ];
      calls =
        [ ("signal", { spin = No_spin; dsm_rmrs = Rmr (n - 1); cc_amortized = Amortized { steady = Rmr n; refills = 0 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 0; cc_amortized = Amortized { steady = Rmr 0; refills = 1 } }) ] }
