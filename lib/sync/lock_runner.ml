(* Driver for the mutual-exclusion experiments (E7): every process performs
   a number of lock passages under a chosen schedule and cost model; the
   exerciser's racy counter certifies mutual exclusion held, and per-process
   RMR tallies reproduce the Section 3 complexity landscape. *)

open Smr

type outcome = {
  sim : Sim.t;
  mutual_exclusion_held : bool;
  total_rmrs : int;
  total_messages : int;
  max_rmrs_per_process : int;
  avg_rmrs_per_passage : float;
  passages : int;
}

let run (module L : Mutex_intf.LOCK) ~model_of ~n ~entries
    ?(policy = Schedule.Round_robin) ?(max_events = 5_000_000) () =
  let module E = Mutex_intf.Exerciser (L) in
  let ctx = Var.Ctx.create () in
  let ex = E.create ctx ~n in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(model_of layout) ~layout ~n in
  let pids = List.init n Fun.id in
  let remaining = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace remaining p entries) pids;
  let behavior _sim p : Schedule.action =
    match Hashtbl.find_opt remaining p with
    | Some k when k > 0 ->
      Hashtbl.replace remaining p (k - 1);
      Start ("cs", Program.of_unit (E.entry ex p))
    | Some _ | None -> Stop
  in
  let sim = Schedule.run ~max_events ~policy ~behavior ~pids sim in
  let passages = n * entries in
  let finished =
    List.for_all (fun p -> Sim.is_terminated sim p || Sim.is_idle sim p) pids
  in
  if not finished then
    failwith
      (Printf.sprintf "Lock_runner: %s did not complete under %s" L.name
         (Schedule.policy_name policy));
  let total_rmrs = Sim.total_rmrs sim in
  { sim;
    mutual_exclusion_held = E.counter_value ex sim = 2 * passages;
    total_rmrs;
    total_messages = Sim.total_messages sim;
    max_rmrs_per_process =
      List.fold_left (fun m p -> max m (Sim.rmrs sim p)) 0 pids;
    avg_rmrs_per_passage =
      (if passages = 0 then 0. else float_of_int total_rmrs /. float_of_int passages);
    passages }
