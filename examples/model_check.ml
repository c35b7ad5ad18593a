(* Model-checking a signaling algorithm: enumerate EVERY interleaving.

   Random testing samples schedules; this example enumerates them.  We
   check the Section 5 flag algorithm and a deliberately broken variant
   against Specification 4.1 over their complete interleaving spaces, then
   size up the bigger algorithms' spaces.

   Run with: dune exec examples/model_check.exe *)

open Smr
open Core

let spec_ok calls = Signaling.check_polling calls = []

let setup (module A : Signaling.POLLING) ~n ~waiters ~polls =
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n ~waiters ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    (0, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 0) ])
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:polls
               ~until:(fun r -> r = 1)
               (Signaling.poll_label, inst.Signaling.i_poll w) ))
         waiters
  in
  (layout, scripts)

let verify name (module A : Signaling.POLLING) ~n ~waiters ~polls =
  let layout, scripts = setup (module A) ~n ~waiters ~polls in
  let r =
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n ~scripts
      ~property:spec_ok ()
  in
  Fmt.pr "  %-16s %8d histories%s%s -> %s@." name r.Explore.histories
    (if r.Explore.truncated > 0 then
       Printf.sprintf " (%d spin-truncated)" r.Explore.truncated
     else "")
    (if r.Explore.complete then ", exhaustive" else ", capped")
    (match r.Explore.violation with
    | None -> "spec 4.1 holds"
    | Some _ -> "VIOLATION FOUND");
  r

(* A deliberately broken algorithm: Signal() raises the flag and then —
   sloppy cleanup — clears it again before returning.  A Poll() that
   begins after such a Signal() completed reads false: a Specification 4.1
   violation the enumeration is guaranteed to find. *)
module Buggy_reset : Signaling.POLLING = struct
  let name = "buggy-reset"

  let description =
    "writes the flag, then clears it before returning: a poll after the \
     completed signal sees false"

  let primitives = [ Op.Reads_writes ]

  let flexibility = Signaling.any_flexibility

  type t = { flag : bool Var.t }

  let create ctx (_ : Signaling.config) =
    { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false }

  let signal t _p =
    Program.bind (Program.write t.flag true) (fun () -> Program.write t.flag false)

  let poll t _p = Program.read t.flag
end

let () =
  Fmt.pr "Exhaustive interleaving checks (DSM model):@.";
  let _ = verify "cc-flag" (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let _ = verify "dsm-broadcast" (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let _ = verify "dsm-single" (module Dsm_single_waiter) ~n:2 ~waiters:[ 1 ] ~polls:3 in
  let _ = verify "dsm-queue" (module Dsm_queue) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  Fmt.pr "@.And a deliberately broken signaler, to show the checker bites:@.";
  let r = verify "buggy-reset" (module Buggy_reset) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  (match r.Explore.violation with
  | Some sim ->
    Fmt.pr "@.The offending history's calls:@.";
    List.iter (fun c -> Fmt.pr "    %a@." History.pp_call c) (Sim.calls sim);
    List.iter
      (fun v -> Fmt.pr "    -> %a@." Signaling.pp_violation v)
      (Signaling.check_polling (Sim.calls sim))
  | None -> Fmt.pr "  (unexpectedly, no violation)@.")
