(* Section 7, "single waiter" (ID not fixed in advance): O(1) RMRs per
   process worst-case in the DSM model, matching the CC upper bound.

   Global W (the waiter's announced ID, initially NIL) and S (the signal
   flag), plus V[i] homed at process i.  The waiter's first Poll() writes W
   and then reads S; later polls read the local V[i].  Signal() writes S
   first and then reads W: whichever side loses the W/S race still observes
   the other's earlier write, the classic flag handshake.  If the signaler
   reads a registered waiter, it forwards the signal into the waiter's
   module, making all subsequent polls local. *)

open Smr
open Program.Syntax

let name = "dsm-single"

let description =
  "single unknown waiter via W/S handshake + local forwarding flag (Sec. 7); \
   O(1) RMRs per process worst-case in DSM"

let primitives = [ Op.Reads_writes ]

let flexibility = { Signaling.any_flexibility with max_waiters = Some 1 }

type t = {
  w : Op.pid option Var.t; (* the waiter's announcement *)
  s : bool Var.t; (* the signal flag *)
  v : bool Var.t array; (* v.(i) homed at module i: forwarded signal *)
  registered : bool Var.t array; (* per-process local memo: "I announced" *)
}

let create ctx (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  { w = Var.Ctx.pid_opt ctx ~name:"W" ~home:Var.Shared None;
    s = Var.Ctx.bool ctx ~name:"S" ~home:Var.Shared false;
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
    let* () = Program.write t.w (Some p) in
    Program.read t.s

let signal t _p =
  let* () = Program.write t.s true in
  let* waiter = Program.read t.w in
  match waiter with
  | None -> Program.return () (* no waiter announced yet; it will read S *)
  | Some j -> Program.write t.v.(j) true

(* Lint claims: the Section 7 W/S handshake — wait-free both sides, O(1)
   RMRs worst case: Poll() at most registers (write W, read S), Signal()
   raises S, reads W and forwards into the waiter's local flag.  With a
   single waiter every cell has one writing process. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "W"; "S"; "V"; "registered" ];
      calls =
        [ ("signal", { spin = No_spin; dsm_rmrs = Rmr 3; cc_amortized = Amortized { steady = Rmr 2; refills = 1 } });
          ("poll", { spin = No_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 3; refills = 2 } }) ] }
