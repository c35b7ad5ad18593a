(* The MCS list-based queue lock (Mellor-Crummey & Scott [28]).

   Contenders enqueue themselves with Fetch-And-Store on a shared tail
   pointer and spin on a flag in their own queue node.  Because each
   process's node (its flag and next pointer) is homed in its own memory
   module, the spin is local in the DSM model as well as the CC model:
   O(1) RMRs per passage in both — the strongest entry in the Section 3
   landscape and the textbook example of co-locating variables with the
   processes that access them most heavily (paper, Sec. 1). *)

open Smr
open Program.Syntax

let name = "mcs"

let primitives = [ Op.Fetch_and_phi; Op.Comparison ]

type t = {
  tail : Op.pid option Var.t;
  next : Op.pid option Var.t array; (* next[i] homed at module i *)
  locked : bool Var.t array; (* locked[i] homed at module i *)
}

let create ctx ~n =
  { tail = Var.Ctx.pid_opt ctx ~name:"mcs.tail" ~home:Var.Shared None;
    next =
      Array.init n (fun i ->
          Var.Ctx.pid_opt ctx
            ~name:(Printf.sprintf "mcs.next[%d]" i)
            ~home:(Var.Module i) None);
    locked =
      Var.Ctx.bool_array ctx ~name:"mcs.locked"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false) }

let acquire t p =
  let* () = Program.write t.next.(p) None in
  (* Arm the spin flag before linking, so the predecessor's hand-off cannot
     be lost. *)
  let* () = Program.write t.locked.(p) true in
  let* pred = Program.fetch_and_store t.tail (Some p) in
  match pred with
  | None -> Program.return () (* lock was free *)
  | Some q ->
    let* () = Program.write t.next.(q) (Some p) in
    Program.await t.locked.(p) not

let release t p =
  let* succ = Program.read t.next.(p) in
  match succ with
  | Some q -> Program.write t.locked.(q) false
  | None ->
    (* No known successor: try to swing the tail back to empty; if that
       fails, a successor is mid-enqueue — wait for it to link itself. *)
    let* swung = Program.cas t.tail ~expected:(Some p) ~update:None in
    if swung then Program.return ()
    else
      let* () =
        Program.repeat_until
          (let+ s = Program.read t.next.(p) in
           s <> None)
      in
      let* succ = Program.read t.next.(p) in
      (match succ with
      | Some q -> Program.write t.locked.(q) false
      | None -> assert false)

(* Lint claims: the strongest entry in the Section 3 landscape — every
   busy-wait (the arrival spin on locked[p] and release's hand-off wait on
   next[p]) targets cells homed in the waiting process's own module, and a
   passage costs O(1) RMRs in DSM: acquire pays the tail swap plus the
   enqueue-behind write; release the tail CAS plus the successor grant. *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [];
      calls =
        [ ("acquire", { spin = Local_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 4; refills = 1 } });
          ("release", { spin = Local_spin; dsm_rmrs = Rmr 2; cc_amortized = Amortized { steady = Rmr 1; refills = 1 } }) ] }
