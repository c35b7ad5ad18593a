(* Shared helpers for the test suite. *)

open Smr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A one-process machine over a fresh context: allocate with [alloc], get
   back (sim, layout). *)
let solo_machine ?(n = 4) ?model alloc =
  let ctx = Var.Ctx.create () in
  let env = alloc ctx in
  let layout = Var.Ctx.freeze ctx in
  let model =
    match model with Some m -> m layout | None -> Cost_model.dsm layout
  in
  (Sim.create ~model ~layout ~n, layout, env)

(* Run a program to completion on process [p]; return final sim and result. *)
let run ?(p = 0) ?(label = "prog") sim program =
  Sim.run_call sim p ~label program

let run_unit ?(p = 0) ?(label = "prog") sim program =
  let sim, v = run ~p ~label sim (Program.map (fun () -> 0) program) in
  assert (v = 0);
  sim

(* Interpret a program against a pure response function, collecting the
   invocations it makes; useful for testing program combinators without a
   machine. *)
let interpret ~respond program =
  let rec go acc = function
    | Program.Return v -> (List.rev acc, v)
    | Program.Step (inv, k) -> go (inv :: acc) (k (respond inv))
  in
  go [] program

let default_cfg ~n =
  Core.Signaling.config ~n
    ~waiters:(List.init (n - 1) (fun i -> i + 1))
    ~signalers:[ 0 ]

(* A golden fixture's bytes (tests run from the test directory). *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s
