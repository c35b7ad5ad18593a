(* Driver for GME experiments and tests: every process performs a number
   of enter/exit passages with a configurable session choice, under a
   chosen schedule and cost model; the call record yields both the safety
   verdict (different sessions never overlap) and the concurrency actually
   achieved. *)

open Smr

type outcome = {
  sim : Sim.t;
  safe : bool;
  max_concurrency : int;
  total_rmrs : int;
  avg_rmrs_per_passage : float;
  passages : int;
}

(* Default session choice: alternate so that neighbours collide — half the
   processes ask for each session at any time. *)
let default_session ~sessions p round = (p + round) mod sessions

let run (module G : Gme_intf.GME) ~model_of ~n ~entries ?(sessions = 2)
    ?(session_of = default_session ~sessions) ?(policy = Schedule.Round_robin)
    ?(max_events = 5_000_000) () =
  let ctx = Var.Ctx.create () in
  let g = G.create ctx ~n ~sessions in
  let scratch = Var.Ctx.int ctx ~name:"gme.scratch" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(model_of layout) ~layout ~n in
  let pids = List.init n Fun.id in
  (* Per-process phase machine: enter -> in-CS work -> exit, [entries]
     times.  The work is its own call so that occupancy intervals
     (enter-completion to exit-start) have width and overlaps are
     observable. *)
  let phase = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace phase p (entries, `Enter)) pids;
  let cs_body p =
    (* Wide enough that occupancies outlast a lock passage, so concurrent
       same-session occupancy is observable under step-fair schedules. *)
    Program.for_ 1 8 (fun _ ->
        Program.Syntax.(
          let* v = Program.read scratch in
          Program.write scratch (v + p - p)))
  in
  let behavior _sim p : Schedule.action =
    match Hashtbl.find_opt phase p with
    | Some (k, `Enter) when k > 0 ->
      let session = session_of p (entries - k) in
      Hashtbl.replace phase p (k, `Work);
      Start
        (Gme_intf.enter_label ~session, Program.of_unit (G.enter g p ~session))
    | Some (k, `Work) ->
      Hashtbl.replace phase p (k, `Exit);
      Start ("cs", Program.of_unit (cs_body p))
    | Some (k, `Exit) ->
      Hashtbl.replace phase p (k - 1, `Enter);
      Start (Gme_intf.exit_label, Program.of_unit (G.exit g p))
    | Some (_, `Enter) | None -> Stop
  in
  let sim = Schedule.run ~max_events ~policy ~behavior ~pids sim in
  let unfinished =
    List.filter (fun p -> not (Sim.is_terminated sim p)) pids
  in
  if unfinished <> [] then
    failwith
      (Printf.sprintf "Gme_runner: %s stuck with %d unfinished processes"
         G.name (List.length unfinished));
  let calls = Sim.calls sim in
  let passages = n * entries in
  let total_rmrs = Sim.total_rmrs sim in
  { sim;
    safe = Gme_intf.is_safe calls;
    max_concurrency = Gme_intf.max_concurrency calls;
    total_rmrs;
    avg_rmrs_per_passage =
      (if passages = 0 then 0. else float_of_int total_rmrs /. float_of_int passages);
    passages }
