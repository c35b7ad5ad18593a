(* Section 7, "many waiters not fixed in advance, one signaler not fixed in
   advance": the Fetch-And-Increment queue solution that closes the gap the
   lower bound opens.

   A waiter's first Poll() adds it to a shared F&I queue and then checks the
   global flag G; later polls read the waiter's own local flag.  Signal()
   sets G and drains the queue, writing the dedicated flag of every waiter
   found.  Worst-case RMRs: O(1) per waiter, O(k) for the signaler over k
   registered waiters — so amortized O(1), which no algorithm restricted to
   reads, writes, CAS and LL/SC can achieve (Thm. 6.2 / Cor. 6.14).

   The escape hatch is the F&I: each registration is pinned into the
   counter's history, every later registrant observes it, and the Section 6
   adversary's erasures stop being legal (replay diverges) — experiment E4
   measures both effects. *)

open Smr
open Program.Syntax

let name = "dsm-queue"

let description =
  "waiters register in a Fetch-And-Increment queue; signaler drains it \
   (Sec. 7); O(1) amortized RMRs in DSM, outside the lower bound's \
   primitive class"

let primitives = [ Op.Reads_writes; Op.Fetch_and_phi ]

let flexibility = Signaling.any_flexibility

type t = {
  queue : Sync.Fai_queue.t;
  g : bool Var.t; (* global signal flag *)
  v : bool Var.vec; (* v[i] homed at module i, written by the signaler *)
  registered : bool Var.vec; (* per-process local memo *)
  observed : bool Var.vec; (* per-process local memo: saw G set at registration *)
}

let create ctx (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  { queue = Sync.Fai_queue.create ctx ~capacity:n;
    g = Var.Ctx.bool ctx ~name:"G" ~home:Var.Shared false;
    v =
      Var.Ctx.bool_vec ctx ~name:"V" ~home:(fun i -> Var.Module i) n (fun _ -> false);
    registered =
      Var.Ctx.bool_vec ctx ~name:"registered"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false);
    observed =
      Var.Ctx.bool_vec ctx ~name:"observed"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let poll t p =
  let* already = Program.read (Var.vec_get t.registered p) in
  if already then
    let* saw = Program.read (Var.vec_get t.observed p) in
    if saw then Program.return true else Program.read (Var.vec_get t.v p)
  else
    let* () = Program.write (Var.vec_get t.registered p) true in
    let* () = Sync.Fai_queue.enqueue t.queue p in
    (* Check G after enqueueing: closes the race with a Signal() that
       drained the queue before our registration landed. *)
    let* g = Program.read t.g in
    if not g then Program.return false
    else
      (* Memoize the observation in a local cell.  Registering after a
         drain means v[p] stays false until the NEXT Signal(); without the
         memo a later Poll() would answer false after a completed Signal()
         — a Specification 4.1 violation that only open-system workloads
         (waiters arriving between signals) expose. *)
      let* () = Program.write (Var.vec_get t.observed p) true in
      Program.return true

(* The drain skips a claimed-but-unpublished slot after one re-read
   instead of awaiting it: a waiter crashing between its F&I and its slot
   publish would otherwise wedge the drain forever (the livelock E15 first
   exposed).  Skipping is safe under ANY schedule, not just crashy ones,
   because G is set before the drain starts and is never unset: a Poll()
   writes [registered], enqueues (F&I then publish), and only then reads
   G — so a claimant whose slot is still empty when the drain passes has
   not yet read G, will observe G = true when it does, and returns true
   without ever needing its V flag. *)
let signal t _p =
  let* () = Program.write t.g true in
  let* _cursor =
    Sync.Fai_queue.drain ~skip_unpublished:1 t.queue ~from:0 (fun q ->
        Program.write (Var.vec_get t.v q) true)
  in
  Program.return ()

(* Lint claims: Poll() is wait-free O(1) — the F&I registration (one faa,
   one slot publish, one G read) is what Theorem 6.2's primitive class
   cannot express; Signal() drains the queue, busy-waiting on each claimed
   slot's publication (remote, unbounded — but amortized O(1) per
   registration, E5). *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "G"; "V"; "registered"; "observed" ];
      calls =
        [ ("signal", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = n + 1 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 3; cc_amortized = Amortized { steady = Rmr 5; refills = 2 } }) ] }
