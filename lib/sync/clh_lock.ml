(* The CLH queue lock (Craig; Landin & Hagersten): an implicit queue where
   each contender spins on its predecessor's node.

   The node a process spins on rotates between processes (on release the
   holder adopts its predecessor's node), so in the DSM model the spin is
   generally in someone else's module — CLH is the canonical example of a
   lock that is local-spin under cache coherence but not under distributed
   shared memory, the mirror image of MCS.  E7 shows the contrast. *)

open Smr
open Program.Syntax

let name = "clh"

let primitives = [ Op.Fetch_and_phi ]

type t = {
  tail : int Var.t; (* index of the last queued node *)
  locked : bool Var.t array; (* n + 1 nodes; node i (< n) starts owned by i *)
  my_node : int Var.t array; (* per-process current node, homed locally *)
  my_pred : int Var.t array; (* per-process predecessor node, homed locally *)
}

let create ctx ~n =
  { tail = Var.Ctx.int ctx ~name:"clh.tail" ~home:Var.Shared n;
    locked =
      Array.init (n + 1) (fun i ->
          Var.Ctx.bool ctx
            ~name:(Printf.sprintf "clh.locked[%d]" i)
            ~home:(if i < n then Var.Module i else Var.Shared)
            false);
    my_node =
      Var.Ctx.int_array ctx ~name:"clh.my_node" ~home:(fun i -> Var.Module i) n
        (fun i -> i);
    my_pred =
      Var.Ctx.int_array ctx ~name:"clh.my_pred" ~home:(fun i -> Var.Module i) n
        (fun _ -> 0) }

let acquire t p =
  let* node = Program.read t.my_node.(p) in
  let* () = Program.write t.locked.(node) true in
  let* pred = Program.fetch_and_store t.tail node in
  let* () = Program.write t.my_pred.(p) pred in
  Program.await t.locked.(pred) not

let release t p =
  let* node = Program.read t.my_node.(p) in
  let* pred = Program.read t.my_pred.(p) in
  let* () = Program.write t.locked.(node) false in
  (* Adopt the predecessor's (now retired) node for the next acquire. *)
  Program.write t.my_node.(p) pred

(* Lint claims: the spin node rotates between processes, so waiting is
   generally in someone else's module — remote in DSM (the mirror image of
   MCS).  my_node/my_pred are per-process memos written only by their
   owner; release frees the owned node (at most 1 remote write). *)
let claims ~n:_ =
  Analysis.Claims.
    { single_writer = [ "clh.my_node"; "clh.my_pred" ];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr 4; refills = 4 } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Rmr 2; refills = 0 } }) ] }
