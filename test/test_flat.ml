(* Differential suite: the flat struct-of-arrays engine against the
   persistent oracle.

   One shared randomized schedule (begins, advances, crashes, terminations)
   drives a [Sim] machine and a [Flat_sim] machine built over the same
   layout, algorithm instance and cost model; at the end the two must agree
   on everything observable — the full call records (pids, labels, ordinals,
   timestamps, results, per-call RMR and step tallies, in completion
   order), the per-process and total RMR/message counters, the clock, the
   memory contents, the load-link sets, and the Specification 4.1 verdict.
   Every catalog algorithm is exercised under DSM and under every CC
   protocol x interconnect x cache size (ideal, and a 2-line LRU cache),
   with crashes enabled.  A last case checks [Flat_sim]'s snapshot and
   restore on their own. *)

open Smr
open Core

(* splitmix64, the same generator the workload library uses; local copy so
   this suite has no dependency on it. *)
let rng_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng_int st bound =
  Int64.to_int (Int64.rem (Int64.logand (rng_next st) Int64.max_int) (Int64.of_int bound))

type engines = {
  mutable sim : Sim.t;
  flat : Flat_sim.t;
  flat_calls : History.call list ref; (* reverse completion order *)
}

let collect calls ~pid ~label ~seq ~started ~finished ~crashed ~result ~rmrs
    ~steps =
  calls :=
    { History.c_pid = pid;
      c_label = label;
      c_seq = seq;
      c_started = started;
      c_finished = (if crashed then None else Some finished);
      c_result = (if crashed then None else Some result);
      c_rmrs = rmrs;
      c_steps = steps }
    :: !calls

type model_pair = {
  mp_name : string;
  mp_sim : n:int -> Var.layout -> Cost_model.t;
  mp_flat : n:int -> Var.layout -> Flat_sim.model_spec;
}

(* DSM plus every protocol x interconnect x cache size: the ideal cache
   (flat ways = the layout size, so the flat LRU never evicts) and a
   2-line LRU cache on both engines. *)
let model_pairs =
  let cc ~protocol ~interconnect ~capacity =
    { mp_name =
        Printf.sprintf "%s/%s%s" (Cc.protocol_name protocol)
          (Cc.interconnect_name interconnect)
          (match capacity with
          | Some c -> Printf.sprintf "/cap%d" c
          | None -> "");
      mp_sim =
        (fun ~n _ -> Cc.model ~protocol ~interconnect ?capacity ~n ());
      mp_flat =
        (fun ~n:_ layout ->
          Flat_sim.Cc
            { protocol;
              interconnect;
              ways =
                (match capacity with
                | Some c -> c
                | None -> max 1 (Var.layout_size layout)) }) }
  in
  { mp_name = "dsm";
    mp_sim = (fun ~n:_ layout -> Cost_model.dsm layout);
    mp_flat = (fun ~n:_ _ -> Flat_sim.Dsm) }
  :: List.concat_map
       (fun protocol ->
         List.concat_map
           (fun interconnect ->
             List.map
               (fun capacity -> cc ~protocol ~interconnect ~capacity)
               [ None; Some 2 ])
           [ Cc.Bus; Cc.Directory_precise; Cc.Directory_limited 1 ])
       Cc.protocols

(* Drive both machines through one random schedule.  The two stay in
   lock-step by construction, so decisions can be made from the flat
   machine's state. *)
let run_schedule ~steps ~crashes st eng (inst : Signaling.instance)
    (cfg : Signaling.config) =
  let n = cfg.Signaling.n in
  let is_waiter = Array.make n false in
  List.iter (fun p -> is_waiter.(p) <- true) cfg.Signaling.waiters;
  let is_signaler = Array.make n false in
  List.iter (fun p -> is_signaler.(p) <- true) cfg.Signaling.signalers;
  for _ = 1 to steps do
    let p = rng_int st n in
    if Flat_sim.is_running eng.flat p then
      if crashes && rng_int st 100 < 4 then begin
        eng.sim <- Sim.crash eng.sim p;
        Flat_sim.crash eng.flat p
      end
      else begin
        eng.sim <- Sim.advance eng.sim p;
        Flat_sim.advance eng.flat p
      end
    else if Flat_sim.is_idle eng.flat p then
      if crashes && rng_int st 100 < 2 then begin
        eng.sim <- Sim.terminate eng.sim p;
        Flat_sim.terminate eng.flat p
      end
      else begin
        let can_signal = is_signaler.(p) in
        let can_poll = is_waiter.(p) in
        let do_signal =
          can_signal && ((not can_poll) || rng_int st 4 = 0)
        in
        if do_signal then begin
          eng.sim <-
            Sim.begin_call eng.sim p ~label:Signaling.signal_label
              (inst.Signaling.i_signal p);
          Flat_sim.begin_call eng.flat p ~label:Signaling.signal_label
            (inst.Signaling.i_signal p)
        end
        else if can_poll then begin
          eng.sim <-
            Sim.begin_call eng.sim p ~label:Signaling.poll_label
              (inst.Signaling.i_poll p);
          Flat_sim.begin_call eng.flat p ~label:Signaling.poll_label
            (inst.Signaling.i_poll p)
        end
      end
  done;
  (* Crash every in-flight call so both sides expose the same finished call
     set (Sim additionally lists pending calls; Flat_sim reports calls only
     at their end). *)
  for p = 0 to n - 1 do
    if Flat_sim.is_running eng.flat p then begin
      eng.sim <- Sim.crash eng.sim p;
      Flat_sim.crash eng.flat p
    end
  done

let check_agreement ~ctx_name eng =
  let sim = eng.sim and flat = eng.flat in
  let layout = Sim.layout sim in
  let n = Sim.n sim in
  Alcotest.(check int)
    (ctx_name ^ ": clock") (Sim.clock sim) (Flat_sim.clock flat);
  Alcotest.(check int)
    (ctx_name ^ ": total rmrs") (Sim.total_rmrs sim) (Flat_sim.total_rmrs flat);
  Alcotest.(check int)
    (ctx_name ^ ": total messages") (Sim.total_messages sim)
    (Flat_sim.total_messages flat);
  for p = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: rmrs p%d" ctx_name p)
      (Sim.rmrs sim p) (Flat_sim.rmrs flat p);
    Alcotest.(check int)
      (Printf.sprintf "%s: steps p%d" ctx_name p)
      (Sim.step_count sim p)
      (Flat_sim.step_count flat p);
    Alcotest.(check int)
      (Printf.sprintf "%s: calls p%d" ctx_name p)
      (Sim.call_count sim p)
      (Flat_sim.call_count flat p);
    Alcotest.(check int)
      (Printf.sprintf "%s: completed p%d" ctx_name p)
      (Sim.completed_count sim p)
      (Flat_sim.completed_count flat p);
    Alcotest.(check (option int))
      (Printf.sprintf "%s: last result p%d" ctx_name p)
      (Sim.last_result sim p)
      (Flat_sim.last_result flat p)
  done;
  let mem = Sim.memory sim in
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "%s: memory %s" ctx_name (Var.layout_name layout a))
        (Memory.get mem a) (Flat_sim.value flat a);
      for p = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: ll p%d %s" ctx_name p (Var.layout_name layout a))
          (Memory.ll_valid mem ~pid:p a)
          (Flat_sim.ll_valid flat p a)
      done)
    (Var.layout_addrs layout);
  (* Full call records, in completion order.  Sim.calls lists completed and
     crashed calls first (the schedule left nothing in flight). *)
  let sim_calls = Sim.calls sim in
  let flat_calls = List.rev !(eng.flat_calls) in
  Alcotest.(check int)
    (ctx_name ^ ": call record count")
    (List.length sim_calls) (List.length flat_calls);
  List.iter2
    (fun (c1 : History.call) (c2 : History.call) ->
      let open History in
      Alcotest.(check bool)
        (Printf.sprintf "%s: call record %s#%d of p%d" ctx_name c1.c_label
           c1.c_seq c1.c_pid)
        true
        (c1.c_pid = c2.c_pid && c1.c_label = c2.c_label && c1.c_seq = c2.c_seq
        && c1.c_started = c2.c_started
        && c1.c_finished = c2.c_finished
        && c1.c_result = c2.c_result && c1.c_rmrs = c2.c_rmrs
        && c1.c_steps = c2.c_steps))
    sim_calls flat_calls;
  (* Same records, so necessarily the same verdict — check it anyway, as the
     property downstream consumers actually read. *)
  Alcotest.(check bool)
    (ctx_name ^ ": spec 4.1 verdict")
    (Signaling.polling_ok sim_calls)
    (Signaling.check_polling flat_calls = [])

let run_one (module A : Signaling.POLLING) mp ~n ~seed ~crashes =
  let cfg = Algorithms.config_for (module A) ~n in
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(mp.mp_sim ~n layout) ~layout ~n in
  let flat_calls = ref [] in
  let flat =
    Flat_sim.create
      ~on_complete:(collect flat_calls)
      ~model:(mp.mp_flat ~n layout) ~layout ~n ()
  in
  let eng = { sim; flat; flat_calls } in
  let st = ref (Int64.of_int (0x5EED + (seed * 7919))) in
  run_schedule ~steps:300 ~crashes st eng inst cfg;
  check_agreement
    ~ctx_name:(Printf.sprintf "%s/%s/seed%d" A.name mp.mp_name seed)
    eng

let test_all_algorithms_all_models () =
  List.iter
    (fun (module A : Signaling.POLLING) ->
      List.iter
        (fun mp ->
          List.iter
            (fun seed -> run_one (module A) mp ~n:4 ~seed ~crashes:true)
            [ 0; 1; 2 ])
        model_pairs)
    Algorithms.polling_algorithms

let test_no_crash_runs () =
  (* Crash-free schedules finish calls normally, exercising the
     completion-path timestamps rather than the crash path. *)
  List.iter
    (fun (module A : Signaling.POLLING) ->
      List.iter
        (fun mp -> run_one (module A) mp ~n:5 ~seed:7 ~crashes:false)
        model_pairs)
    Algorithms.polling_algorithms

let test_run_call_matches () =
  (* The sequential helper: a solo signal-then-poll conversation gives the
     same results and tallies under both engines, for every model. *)
  List.iter
    (fun mp ->
      let n = 3 in
      let cfg = Algorithms.config_for (module Cc_flag) ~n in
      let ctx = Var.Ctx.create () in
      let inst = Signaling.instantiate (module Cc_flag) ctx cfg in
      let layout = Var.Ctx.freeze ctx in
      let sim = Sim.create ~model:(mp.mp_sim ~n layout) ~layout ~n in
      let flat =
        Flat_sim.create ~model:(mp.mp_flat ~n layout) ~layout ~n ()
      in
      let sim, r0 =
        Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
      in
      let f0 =
        Flat_sim.run_call flat 1 ~label:Signaling.poll_label
          (inst.Signaling.i_poll 1)
      in
      let sim, _ =
        Sim.run_call sim 0 ~label:Signaling.signal_label
          (inst.Signaling.i_signal 0)
      in
      let (_ : Op.value) =
        Flat_sim.run_call flat 0 ~label:Signaling.signal_label
          (inst.Signaling.i_signal 0)
      in
      let sim, r1 =
        Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
      in
      let f1 =
        Flat_sim.run_call flat 1 ~label:Signaling.poll_label
          (inst.Signaling.i_poll 1)
      in
      Alcotest.(check (pair int int))
        (mp.mp_name ^ ": poll results")
        (r0, r1) (f0, f1);
      Alcotest.(check int)
        (mp.mp_name ^ ": total rmrs")
        (Sim.total_rmrs sim) (Flat_sim.total_rmrs flat))
    model_pairs

(* Counter-plane soundness: over one shared schedule, the flat engine's
   {!Obs.Counters} totals must equal what the persistent simulator's
   tracer folds into its metrics registry — RMRs, executed steps, crashes
   and (for CC models) coherence messages.  Totals, not per-label rows:
   the planes are marginal by design, and under DSM the tracer bills
   message hops through [messages_total] while the event stream carries
   no cache events, so the coherence totals are both zero there. *)
let run_counters_one (module A : Signaling.POLLING) mp ~n ~seed ~crashes =
  let cfg = Algorithms.config_for (module A) ~n in
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let tr = Obs.Trace.create () in
  let sim =
    Sim.with_tracer
      (Sim.create ~model:(mp.mp_sim ~n layout) ~layout ~n)
      (Some tr)
  in
  let counters =
    Obs.Counters.create ~n ~size:(Var.layout_size layout) ()
  in
  let flat_calls = ref [] in
  let flat =
    Flat_sim.create ~counters
      ~on_complete:(collect flat_calls)
      ~model:(mp.mp_flat ~n layout) ~layout ~n ()
  in
  let eng = { sim; flat; flat_calls } in
  let st = ref (Int64.of_int (0xC0DE + (seed * 7919))) in
  run_schedule ~steps:300 ~crashes st eng inst cfg;
  let traced name = int_of_float (Obs.Metrics.total (Obs.Trace.metrics tr) name) in
  let ctx_name = Printf.sprintf "%s/%s/seed%d" A.name mp.mp_name seed in
  Alcotest.(check int)
    (ctx_name ^ ": counters rmr vs traced rmr_total")
    (traced "rmr_total")
    (Obs.Counters.total counters Obs.Counters.Rmr);
  Alcotest.(check int)
    (ctx_name ^ ": counters steps vs traced steps_total")
    (traced "steps_total")
    (Obs.Counters.total counters Obs.Counters.Rmr
    + Obs.Counters.total counters Obs.Counters.Local);
  Alcotest.(check int)
    (ctx_name ^ ": counters crashes vs traced crashes_total")
    (traced "crashes_total")
    (Obs.Counters.total counters Obs.Counters.Crash);
  Alcotest.(check int)
    (ctx_name ^ ": counters messages vs traced coherence_messages_total")
    (traced "coherence_messages_total")
    (Obs.Counters.total_messages counters);
  (* The plane view and the engine's own tallies agree as well. *)
  Alcotest.(check int)
    (ctx_name ^ ": counters rmr vs engine total_rmrs")
    (Flat_sim.total_rmrs flat)
    (Obs.Counters.total counters Obs.Counters.Rmr);
  let per_cell_rmrs =
    List.fold_left
      (fun acc a ->
        acc + Obs.Counters.cell_total counters ~addr:a Obs.Counters.Rmr)
      0 (Var.layout_addrs layout)
  in
  Alcotest.(check int)
    (ctx_name ^ ": cell plane sums to the pid plane")
    (Obs.Counters.total counters Obs.Counters.Rmr)
    per_cell_rmrs

let test_counters_match_trace () =
  List.iter
    (fun (module A : Signaling.POLLING) ->
      List.iter
        (fun mp ->
          run_counters_one (module A) mp ~n:4 ~seed:11 ~crashes:true;
          run_counters_one (module A) mp ~n:5 ~seed:13 ~crashes:false)
        model_pairs)
    Algorithms.polling_algorithms

(* Link records are allocated by the first LL, so a snapshot taken before
   it holds none.  Restoring such a snapshot must drop the links made
   since (the next SC fails, as on a fresh machine), and restoring one
   taken after an LL must bring its link back. *)
let test_snapshot_across_first_ll () =
  let machine ?(cells = 1) ?(ll_ways = 4) ?(model = Flat_sim.Dsm) ~n () =
    let ctx = Var.Ctx.create () in
    let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
    for i = 2 to cells do
      ignore (Var.Ctx.int ctx ~name:(Printf.sprintf "y%d" i) ~home:Var.Shared 0)
    done;
    (x, Flat_sim.create ~ll_ways ~model ~layout:(Var.Ctx.freeze ctx) ~n ())
  in
  (* The SC's result, then the cell it targeted. *)
  let sc flat x v =
    let won =
      Flat_sim.run_call flat 0 ~label:"sc"
        (Program.map Bool.to_int (Program.store_conditional x v))
    in
    (won, Flat_sim.value flat (Var.addr x))
  in
  let x, flat = machine ~n:2 () in
  let before = Flat_sim.snapshot flat in
  ignore (Flat_sim.run_call flat 0 ~label:"ll" (Program.load_linked x));
  let after = Flat_sim.snapshot flat in
  Flat_sim.restore flat before;
  Alcotest.(check bool) "restored: no link" false
    (Flat_sim.ll_valid flat 0 (Var.addr x));
  let fresh_x, fresh = machine ~n:2 () in
  Alcotest.(check (pair int int))
    "restored: SC fails as on a fresh machine" (sc fresh fresh_x 5)
    (sc flat x 5);
  Alcotest.(check int) "restored: same clock" (Flat_sim.clock fresh)
    (Flat_sim.clock flat);
  Flat_sim.restore flat after;
  Alcotest.(check bool) "link back" true
    (Flat_sim.ll_valid flat 0 (Var.addr x));
  Alcotest.(check (pair int int)) "SC succeeds" (1, 5) (sc flat x 5);
  (* Shape is n, layout size, and ways and link slots after the cap. *)
  let cc ways =
    Flat_sim.Cc { protocol = Cc.Write_through; interconnect = Cc.Bus; ways }
  in
  let restores ?(expect = true) what (_, into) (_, from) =
    let ok =
      match Flat_sim.restore into (Flat_sim.snapshot from) with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    Alcotest.(check bool) what expect ok
  in
  let linked ((x, m) as machine) =
    ignore (Flat_sim.run_call m 0 ~label:"ll" (Program.load_linked x));
    machine
  in
  restores ~expect:false "different n" (machine ~n:2 ()) (machine ~n:3 ());
  restores ~expect:false "different layout size" (machine ~n:2 ())
    (machine ~cells:2 ~n:2 ());
  restores ~expect:false "different ways"
    (machine ~cells:2 ~model:(cc 1) ~n:2 ())
    (machine ~cells:2 ~model:(cc 2) ~n:2 ());
  restores "ways capped alike" (machine ~cells:2 ~model:(cc 2) ~n:2 ())
    (machine ~cells:2 ~model:(cc 8) ~n:2 ());
  restores ~expect:false "different link slots"
    (machine ~cells:2 ~ll_ways:1 ~n:2 ())
    (linked (machine ~cells:2 ~ll_ways:2 ~n:2 ()));
  restores "link slots capped alike" (machine ~cells:2 ~ll_ways:4 ~n:2 ())
    (linked (machine ~cells:2 ~ll_ways:64 ~n:2 ()))

let suite =
  [ Alcotest.test_case "all algorithms x models x seeds, with crashes" `Quick
      test_all_algorithms_all_models;
    Alcotest.test_case "crash-free schedules" `Quick test_no_crash_runs;
    Alcotest.test_case "run_call parity" `Quick test_run_call_matches;
    Alcotest.test_case "counter planes match the traced metrics" `Quick
      test_counters_match_trace;
    Alcotest.test_case "snapshot and restore across the first LL" `Quick
      test_snapshot_across_first_ll ]
