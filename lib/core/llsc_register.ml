(* An LL/SC-based registration algorithm — the other half of the
   Corollary 6.14 primitive class.

   Identical in structure to [Cas_register], but the head counter is
   advanced with a Load-Linked / Store-Conditional retry loop.  LL/SC is a
   comparison-class primitive like CAS: a failed SC writes nothing, so an
   adversarial scheduler can make k concurrent registrations collide into
   Θ(k²) RMRs (every interleaved nontrivial operation invalidates the
   links of all other registrants), while hardware F&I admits no such
   schedule.  [Transformed] applies the {!Sync.Local_cas} rewrite, turning
   every LL/SC (and link-invalidating write) into lock-mediated reads and
   writes — the Corollary 6.14 reduction for the LL/SC case. *)

open Smr
open Program.Syntax

let name = "llsc-register"

let description =
  "registration via LL/SC-emulated F&I (reads/writes/LL/SC); subject to \
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
  let* h = Program.load_linked t.head in
  let* won = Program.store_conditional t.head (h + 1) in
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

let llsc_addrs t = [ Var.addr t.head ]

(* The Corollary 6.14 reduction, LL/SC flavor. *)
module Transformed = struct
  let name = "llsc-register/rw"

  let description =
    "llsc-register after the Cor. 6.14 transformation: LL/SC on the head \
     counter replaced by Local_cas's versioned read/write cell"

  let primitives = [ Op.Reads_writes ]

  let flexibility = flexibility

  type nonrec t = { inner : t; lcas : Sync.Local_cas.t }

  let create ctx (cfg : Signaling.config) =
    let inner = create ctx cfg in
    let lcas =
      Sync.Local_cas.create ctx ~n:cfg.Signaling.n ~addrs:(llsc_addrs inner)
    in
    { inner; lcas }

  let poll t p = Sync.Local_cas.transform t.lcas p (poll t.inner p)

  let signal t p = Sync.Local_cas.transform t.lcas p (signal t.inner p)
end

(* Lint claims: as cas_register — the LL/SC retry loop spins on the shared
   head cell; comparison-class registration cannot be O(1) per call. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "G"; "V"; "registered" ];
      calls =
        [ ("signal", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 2; refills = 2 } });
          ("poll", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 2 } }) ] }
