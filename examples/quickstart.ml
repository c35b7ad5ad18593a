(* Quickstart: build a tiny machine by hand, write a signaling exchange in
   the program DSL, and watch the same execution get billed differently by
   the DSM and CC cost models.

   Run with: dune exec examples/quickstart.exe *)

open Smr
open Program.Syntax

let () =
  (* 1. Declare shared variables.  [flag] is a single shared Boolean — the
     whole Section 5 algorithm; [note] lives in process 1's own memory
     module, so only process 1 can read it for free in the DSM model. *)
  let ctx = Var.Ctx.create () in
  let flag = Var.Ctx.bool ctx ~name:"flag" ~home:Var.Shared false in
  let note = Var.Ctx.int ctx ~name:"note" ~home:(Var.Module 1) 0 in
  let layout = Var.Ctx.freeze ctx in

  (* 2. Write process code as ordinary monadic programs. *)
  let signaler =
    let* () = Program.write flag true in
    Program.write note 42
  in
  let waiter =
    (* Spin until the flag is up, then read the note. *)
    let* () = Program.await flag Fun.id in
    Program.read note
  in

  (* 3. Run the same interleaving under each cost model. *)
  let run model_name model =
    let sim = Sim.create ~model ~layout ~n:2 in
    (* Let the waiter poll the flag three times in vain first. *)
    let sim = Sim.begin_call sim 1 ~label:"wait" waiter in
    let sim = List.fold_left (fun s () -> Sim.advance s 1) sim [ (); (); () ] in
    let sim, _ = Sim.run_call sim 0 ~label:"signal" (Program.of_unit signaler) in
    let sim = Sim.run_to_idle sim 1 in
    Fmt.pr "%-6s  signaler %d RMRs, waiter %d RMRs, note read = %d@."
      model_name (Sim.rmrs sim 0) (Sim.rmrs sim 1)
      (Option.get (Sim.last_result sim 1))
  in
  Fmt.pr "One spin-on-a-shared-flag exchange, billed by each model:@.";
  run "dsm" (Cost_model.dsm layout);
  run "cc-wt" (Cc.model ~n:2 ());
  Fmt.pr
    "@.The waiter's spin costs an RMR per iteration under DSM but is served@.\
     from its cache under CC — the asymmetry the paper turns into a theorem.@.";

  (* 4. The same comparison through the library's packaged algorithms. *)
  let n = 8 in
  let cfg = Core.Algorithms.config_for (module Core.Cc_flag) ~n in
  Fmt.pr "@.cc-flag (Sec. 5) at N=%d, per model:@." n;
  List.iter
    (fun tag ->
      let o = Core.Scenario.run_phased (module Core.Cc_flag) ~model:tag ~cfg () in
      Fmt.pr "  %-8s max waiter %d RMRs, amortized %.2f@."
        (Core.Scenario.model_tag_name tag)
        o.Core.Scenario.max_waiter_rmrs o.Core.Scenario.amortized)
    [ `Dsm; `Cc_wt; `Cc_wb; `Cc_lfcu ]
