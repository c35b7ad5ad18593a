(* Tests for the semi-synchronous model and Fischer's timing-based lock
   (paper, Section 3 context), and for finite-capacity caches (Section 8). *)

open Smr
open Test_util

(* --- the semi-sync scheduler itself --- *)

let test_semi_sync_step_gap_bound () =
  (* Two long-running processes: under Semi_sync, the gap between a
     process's consecutive steps never exceeds delta. *)
  let ctx = Var.Ctx.create () in
  let xs =
    Array.init 3 (fun i ->
        Var.Ctx.int ctx ~name:(Printf.sprintf "x%d" i) ~home:(Var.Module i) 0)
  in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:3 in
  let prog p =
    Program.map (fun () -> 0)
      (Program.for_ 1 30 (fun i -> Program.write xs.(p) i))
  in
  let behavior sim p : Schedule.action =
    if Sim.last_result sim p = None then Start ("w", prog p) else Stop
  in
  let delta = 4 in
  let sim =
    Schedule.run
      ~policy:(Schedule.Semi_sync { delta; seed = 9 })
      ~behavior ~pids:[ 0; 1; 2 ] sim
  in
  (* Reconstruct per-process step times and check consecutive gaps.  The
     bound applies while a process has a pending step, i.e. between steps
     of the same call. *)
  let by_pid = Hashtbl.create 4 in
  List.iter
    (fun (s : History.step) ->
      Hashtbl.replace by_pid s.History.pid
        (s.History.time
        :: Option.value ~default:[] (Hashtbl.find_opt by_pid s.History.pid)))
    (Sim.steps sim);
  Hashtbl.iter
    (fun p times ->
      let ordered = List.sort compare times in
      let rec gaps = function
        | a :: (b :: _ as rest) ->
          check_true
            (Printf.sprintf "p%d gap %d-%d within 2*delta" p a b)
            (b - a <= (2 * delta) + 2);
          gaps rest
        | _ -> ()
      in
      gaps ordered)
    by_pid;
  check_true "everyone finished"
    (List.for_all (fun p -> Sim.last_result sim p = Some 0) [ 0; 1; 2 ])

let test_semi_sync_completes_scripts () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:4 in
  let behavior =
    Schedule.script
      (List.init 4 (fun p ->
           (p, [ ("w", Program.map (fun _ -> 0) (Program.step (Op.Faa (Var.addr x, 1)))) ])))
  in
  let sim =
    Schedule.run
      ~policy:(Schedule.Semi_sync { delta = 3; seed = 2 })
      ~behavior ~pids:[ 0; 1; 2; 3 ] sim
  in
  check_int "all four increments" 4 (Memory.get (Sim.memory sim) (Var.addr x))

(* --- Fischer's lock --- *)

let run_fischer ~n ~delay ~policy =
  Sync.Lock_runner.run
    (Sync.Fischer_lock.with_delay delay)
    ~model_of:Cost_model.dsm ~n ~entries:2 ~policy ()

let test_fischer_safe_under_semi_sync () =
  List.iter
    (fun seed ->
      let delta = 4 in
      let o =
        run_fischer ~n:4 ~delay:((2 * delta) + 4)
          ~policy:(Schedule.Semi_sync { delta; seed })
      in
      check_true
        (Printf.sprintf "seed %d: mutual exclusion held" seed)
        o.Sync.Lock_runner.mutual_exclusion_held)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_fischer_violable_async () =
  (* With a tiny delay and asynchronous scheduling, some seed breaks it. *)
  let broken =
    List.exists
      (fun seed ->
        let o = run_fischer ~n:4 ~delay:1 ~policy:(Schedule.Random_seed seed) in
        not o.Sync.Lock_runner.mutual_exclusion_held)
      (List.init 20 (fun i -> i + 1))
  in
  check_true "asynchrony defeats the timing assumption" broken

let test_fischer_forced_overlap_is_deterministic () =
  (* The canonical violation (E11's construction) must reproduce for any
     delay: under full asynchrony the second writer always self-certifies. *)
  List.iter
    (fun delay ->
      let ctx = Var.Ctx.create () in
      let lock = Sync.Fischer_lock.create_timed ctx ~n:2 ~delay in
      let layout = Var.Ctx.freeze ctx in
      let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
      let acq p = Program.map (fun () -> 0) (Sync.Fischer_lock.acquire lock p) in
      let sim = Sim.begin_call sim 0 ~label:"a" (acq 0) in
      let sim = Sim.begin_call sim 1 ~label:"a" (acq 1) in
      let sim = Sim.advance sim 0 in
      let sim = Sim.advance sim 1 in
      let sim = Sim.run_to_idle sim 0 in
      let sim = Sim.run_to_idle sim 1 in
      check_true
        (Printf.sprintf "delay %d: both hold the lock" delay)
        (Sim.is_idle sim 0 && Sim.is_idle sim 1))
    [ 1; 4; 16 ]

let test_fischer_uncontended () =
  let o = run_fischer ~n:1 ~delay:5 ~policy:Schedule.Round_robin in
  check_true "single process acquires" o.Sync.Lock_runner.mutual_exclusion_held;
  check_int "both passages done" 2 o.Sync.Lock_runner.passages

(* --- finite-capacity caches --- *)

let cc_cap capacity = Cc.model ~capacity ~n:4 ()

let account_seq model steps =
  let _, costs =
    List.fold_left
      (fun (m, acc) (pid, inv, wrote) ->
        let m, c = Cost_model.account m pid inv ~wrote in
        (m, c :: acc))
      (model, []) steps
  in
  List.rev costs

let rmrs costs = List.length (List.filter (fun c -> c.Cost_model.rmr) costs)

let test_capacity_eviction () =
  (* Working set of 3 addresses under a 2-line cache: cycling through them
     misses every time; the ideal cache misses only thrice. *)
  let reads = List.concat (List.init 4 (fun _ -> [ 0; 1; 2 ])) in
  let steps = List.map (fun a -> (0, Op.Read a, false)) reads in
  check_int "ideal: one miss per address" 3 (rmrs (account_seq (Cc.model ~n:4 ()) steps));
  check_int "cap 2: every read misses (LRU thrash)" 12
    (rmrs (account_seq (cc_cap 2) steps));
  check_int "cap 3: working set fits" 3 (rmrs (account_seq (cc_cap 3) steps))

let test_capacity_mru_retained () =
  (* Re-touching an address keeps it hot: A B A C A ... A never misses
     twice under capacity 2. *)
  let steps =
    List.map (fun a -> (0, Op.Read a, false)) [ 0; 1; 0; 2; 0; 3; 0 ]
  in
  let costs = account_seq (cc_cap 2) steps in
  let a_misses =
    List.length
      (List.filteri
         (fun i c -> List.nth [ 0; 1; 0; 2; 0; 3; 0 ] i = 0 && c.Cost_model.rmr)
         costs)
  in
  check_int "address 0 misses only once" 1 a_misses

let test_capacity_eviction_drops_ownership () =
  (* Write-back: an evicted dirty line loses exclusivity, so the next
     write misses again. *)
  let m = Cc.model ~protocol:Cc.Write_back ~capacity:1 ~n:4 () in
  let steps =
    [ (0, Op.Write (0, 1), true); (* own line 0 *)
      (0, Op.Write (1, 1), true); (* evicts line 0 *)
      (0, Op.Write (0, 2), true) (* must re-acquire: RMR *) ]
  in
  check_int "all three writes miss" 3 (rmrs (account_seq m steps));
  (* The same when a read miss does the evicting: the fill's eviction
     drops ownership of line 0 like a write's does. *)
  let steps =
    [ (0, Op.Write (0, 1), true); (* own line 0 *)
      (0, Op.Read 1, false); (* evicts line 0 *)
      (0, Op.Write (0, 2), true) (* must re-acquire: RMR *) ]
  in
  check_int "write, evicting read, write: all three miss" 3
    (rmrs (account_seq m steps))

let test_capacity_one_equals_no_reuse () =
  (* Capacity 1 with an alternating working set degenerates to DSM-like
     costs: every access remote. *)
  let steps = List.map (fun a -> (0, Op.Read a, false)) [ 0; 1; 0; 1; 0; 1 ] in
  check_int "no reuse" 6 (rmrs (account_seq (cc_cap 1) steps))

let suite =
  [ case "semi-sync bounds step gaps" test_semi_sync_step_gap_bound;
    case "semi-sync completes scripts" test_semi_sync_completes_scripts;
    case "fischer safe under semi-sync" test_fischer_safe_under_semi_sync;
    case "fischer violable under asynchrony" test_fischer_violable_async;
    case "fischer forced overlap deterministic" test_fischer_forced_overlap_is_deterministic;
    case "fischer uncontended" test_fischer_uncontended;
    case "capacity: LRU thrash" test_capacity_eviction;
    case "capacity: MRU retained" test_capacity_mru_retained;
    case "capacity: eviction drops ownership" test_capacity_eviction_drops_ownership;
    case "capacity 1: no reuse" test_capacity_one_equals_no_reuse ]
