(* Section 7, "many waiters not fixed in advance, one signaler fixed in
   advance": waiters register in the signaler's own memory module.

   Because the signaler's identity is known when the variables are laid
   out, the registration array reg[0..N-1] can be homed in the signaler's
   module: a waiter's first Poll() writes reg[p] (one RMR, charged to that
   waiter) and the signaler scans the whole array locally (zero RMRs),
   writing V[j] only for registered waiters (one RMR per participant).
   The race between registration and signaling is closed exactly as the
   paper prescribes: "The signaler writes S at the beginning of Signal(),
   and waiters check S at the end of their first call to Poll() (i.e.,
   after registering)."

   Per-process worst case: O(1) for waiters, O(k) for the signaler over k
   registered waiters; amortized O(1).  The paper cites [12] for a version
   that is O(1) worst-case per process including the signaler — DESIGN.md
   records the simplification. *)

open Smr
open Program.Syntax

let name = "dsm-registration"

let description =
  "fixed signaler; waiters register in the signaler's module, signaler \
   scans locally (Sec. 7); O(1) amortized RMRs in DSM"

let primitives = [ Op.Reads_writes ]

let flexibility =
  { Signaling.any_flexibility with signaler_fixed = true; max_signalers = Some 1 }

type t = {
  n : int;
  s : bool Var.t; (* global signal flag *)
  reg : bool Var.t array; (* reg.(i): all homed at the signaler's module *)
  v : bool Var.t array; (* v.(i) homed at module i *)
  registered : bool Var.t array; (* per-process local memo *)
}

let create ctx (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  let signaler =
    match cfg.Signaling.signalers with
    | [ s ] -> s
    | _ -> invalid_arg "Dsm_registration.create: exactly one fixed signaler required"
  in
  { n;
    s = Var.Ctx.bool ctx ~name:"S" ~home:Var.Shared false;
    reg =
      Var.Ctx.bool_array ctx ~name:"reg"
        ~home:(fun _ -> Var.Module signaler)
        n
        (fun _ -> false);
    v =
      Var.Ctx.bool_array ctx ~name:"V" ~home:(fun i -> Var.Module i) n (fun _ -> false);
    registered =
      Var.Ctx.bool_array ctx ~name:"registered"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let poll t p =
  let* already = Program.read t.registered.(p) in
  if already then Program.read t.v.(p)
  else
    let* () = Program.write t.registered.(p) true in
    let* () = Program.write t.reg.(p) true in
    (* Check S after registering: closes the race with a concurrent
       Signal() that scanned reg before our registration landed. *)
    Program.read t.s

let signal t _p =
  let* () = Program.write t.s true in
  Program.for_ 0 (t.n - 1) (fun j ->
      let* r = Program.read t.reg.(j) in
      Program.when_ r (Program.write t.v.(j) true))

(* Lint claims: wait-free; waiters register in cells homed at the
   signaler's module (one remote write + the S read), Signal() scans the
   registry locally and forwards into registered waiters' local flags (at
   most S plus n-1 remote writes). *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "reg"; "S"; "V"; "registered" ];
      calls =
        [ ("signal", { spin = No_spin; dsm_rmrs = Rmr n; cc_amortized = Amortized { steady = Rmr (n + 1); refills = n - 1 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 3; refills = 2 } }) ] }
