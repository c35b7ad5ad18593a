(* A CAS-based registration algorithm, and its Corollary 6.14 read/write
   transformation.

   Waiters register by advancing a head counter with a CAS retry loop and
   publishing their ID into the claimed slot — Fetch-And-Increment emulated
   from CAS.  The signaler sets the global flag and sweeps the published
   slots.  Per-operation the algorithm looks as cheap as [Dsm_queue], but it
   sits inside the lower bound's primitive class (reads, writes, CAS), and
   Corollary 6.14 says O(1) amortized RMRs must be unattainable.  The
   adversary exhibits this differently from the read/write case: a CAS
   retry storm — scheduling k registrants to read the same head value
   before any of them swaps — forces Θ(k²) total RMRs for k registrations
   (experiment E8's contention schedule), whereas hardware F&I admits no
   such schedule.

   [Transformed] applies the {!Sync.Local_cas} rewrite to every CAS on the
   head counter, yielding a reads/writes-only algorithm (the Corollary 6.14
   reduction); tests assert that its histories contain no CAS steps. *)

open Smr
open Program.Syntax

let name = "cas-register"

let description =
  "registration via CAS-emulated F&I (reads/writes/CAS); subject to \
   Cor. 6.14 — contention schedules force ω(1) amortized RMRs"

let primitives = [ Op.Reads_writes; Op.Comparison ]

let flexibility = Signaling.any_flexibility

type t = {
  head : int Var.t;
  slots : Op.pid option Var.t array;
  g : bool Var.t;
  v : bool Var.t array;
  registered : bool Var.t array;
}

let create ctx (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  { head = Var.Ctx.int ctx ~name:"head" ~home:Var.Shared 0;
    slots =
      Array.init n (fun i ->
          Var.Ctx.pid_opt ctx
            ~name:(Printf.sprintf "slot[%d]" i)
            ~home:Var.Shared None);
    g = Var.Ctx.bool ctx ~name:"G" ~home:Var.Shared false;
    v =
      Var.Ctx.bool_array ctx ~name:"V" ~home:(fun i -> Var.Module i) n (fun _ -> false);
    registered =
      Var.Ctx.bool_array ctx ~name:"registered"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let rec claim_slot t =
  let* h = Program.read t.head in
  let* won = Program.cas t.head ~expected:h ~update:(h + 1) in
  if won then Program.return h else claim_slot t

let poll t p =
  let* already = Program.read t.registered.(p) in
  if already then Program.read t.v.(p)
  else
    let* () = Program.write t.registered.(p) true in
    let* slot = claim_slot t in
    let* () = Program.write t.slots.(slot) (Some p) in
    Program.read t.g

let signal t _p =
  let* () = Program.write t.g true in
  let* upto = Program.read t.head in
  let rec sweep i =
    if i >= upto then Program.return ()
    else
      let* () = Program.await t.slots.(i) Option.is_some in
      let* elem = Program.read t.slots.(i) in
      match elem with
      | Some q ->
        let* () = Program.write t.v.(q) true in
        sweep (i + 1)
      | None -> assert false
  in
  sweep 0

let cas_addrs t = [ Var.addr t.head ]

(* The Corollary 6.14 reduction: the same algorithm with every CAS replaced
   by the lock-mediated read/write implementation. *)
module Transformed = struct
  let name = "cas-register/rw"

  let description =
    "cas-register after the Cor. 6.14 transformation: CAS on the head \
     counter replaced by Local_cas (reads/writes only)"

  let primitives = [ Op.Reads_writes ]

  let flexibility = flexibility

  type nonrec t = { inner : t; lcas : Sync.Local_cas.t }

  let create ctx (cfg : Signaling.config) =
    let inner = create ctx cfg in
    let lcas =
      Sync.Local_cas.create ctx ~n:cfg.Signaling.n ~addrs:(cas_addrs inner)
    in
    { inner; lcas }

  let poll t p = Sync.Local_cas.transform t.lcas p (poll t.inner p)

  let signal t p = Sync.Local_cas.transform t.lcas p (signal t.inner p)
end

(* Lint claims: the CAS registration loop retries on the shared head
   counter — remote spinning with no per-call bound (the E8a schedule
   realizes Θ(k²) total), exactly the weakness Cor. 6.14 predicts for the
   comparison class.  Claims hold for the transformed (reads/writes only)
   variant too: the lock-mediated emulation only adds remote waiting. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "G"; "V"; "registered" ];
      calls =
        [ ("signal", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 2; refills = 2 } });
          ("poll", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 2 } }) ] }
