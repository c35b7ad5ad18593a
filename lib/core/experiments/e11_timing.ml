(* E11: the semi-synchronous model (Sec. 3) — timing-based mutual
   exclusion is safe exactly when the timing assumption holds. *)

open Smr

let default_n = 4
let default_delta = 6
let default_seeds = List.init 20 (fun i -> i + 1)
let reduced_n = 3
let reduced_seeds = [ 1; 2; 3; 4 ]

let claim =
  "Sec. 3 context: Fischer's lock is safe under the semi-synchronous \
   timing assumption and violable under full asynchrony — timing is \
   exactly what the algorithm's safety buys"

(* Count, over many seeds, how often Fischer's lock loses an increment. *)
let fischer_violations ~n ~delay ~policy_of ~seeds =
  List.fold_left
    (fun bad seed ->
      let o =
        Sync.Lock_runner.run
          (Sync.Fischer_lock.with_delay delay)
          ~model_of:Cost_model.dsm ~n ~entries:2 ~policy:(policy_of seed) ()
      in
      if o.Sync.Lock_runner.mutual_exclusion_held then bad else bad + 1)
    0 seeds

(* The canonical Fischer violation, forced deterministically: p0 and p1
   both read X = NIL; then p0 runs alone through write / delay / re-check
   and enters; only then does p1 perform its write (now the last), delay,
   re-check X = p1, and enter too.  Returns whether both completed acquire
   with nobody releasing, and the step gap p1 needed between its read and
   its write — the schedule is legal in the semi-synchronous model iff
   that gap is at most delta. *)
let fischer_forced_overlap ~delay =
  let ctx = Var.Ctx.create () in
  let lock = Sync.Fischer_lock.create_timed ctx ~n:2 ~delay in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let acquire p = Program.of_unit (Sync.Fischer_lock.acquire lock p) in
  let sim = Sim.begin_call sim 0 ~label:"acquire" (acquire 0) in
  let sim = Sim.begin_call sim 1 ~label:"acquire" (acquire 1) in
  let sim = Sim.advance sim 0 (* p0 reads X = NIL *) in
  let sim = Sim.advance sim 1 (* p1 reads X = NIL *) in
  let gap_start = Sim.clock sim in
  let sim = Sim.run_to_idle sim 0 (* p0: write, delay, re-check, enter *) in
  let gap = Sim.clock sim - gap_start + 1 (* p1's write comes next *) in
  let sim = Sim.run_to_idle sim 1 (* p1: write, delay, re-check *) in
  let both_in = Sim.is_idle sim 0 && Sim.is_idle sim 1 in
  (both_in, gap)

let table ?(jobs = 1) ?(n = default_n) ?(delta = default_delta)
    ?(seeds = default_seeds) () =
  ignore jobs (* four heterogeneous rows; nothing worth fanning out *);
  let semi seed = Schedule.Semi_sync { delta; seed } in
  let async seed = Schedule.Random_seed seed in
  let forced_row delay =
    let both_in, gap = fischer_forced_overlap ~delay in
    Results.
      [ text "forced overlap (async)";
        int delay;
        text (if both_in then "both entered CS" else "excluded");
        text
          (Printf.sprintf "gap %d %s delta=%d %s" gap
             (if gap <= delta then "<=" else ">")
             delta
             (if gap <= delta then "(legal even semi-sync!)" else "(async only)")) ]
  in
  let sampled_row label policy_of delay =
    let bad = fischer_violations ~n ~delay ~policy_of ~seeds in
    Results.
      [ text label;
        int delay;
        text (Printf.sprintf "%d/%d seeds violated" bad (List.length seeds));
        text (if bad = 0 then "safe" else "UNSAFE") ]
  in
  let safe_delay = (2 * delta) + n in
  Results.make ~experiment:"e11"
    ~title:
      (Printf.sprintf
         "E11 (Sec. 3 context): Fischer's timing-based lock (N=%d).  The \
          forced two-process overlap needs a read-to-write gap of delay+2 \
          ticks: asynchrony always allows it; the semi-synchronous model \
          (gap <= %d) allows it only when the delay is too small — timing \
          is exactly what the algorithm's safety buys"
         n delta)
    ~claim
    ~params:
      [ ("n", Results.int n);
        ("delta", Results.int delta);
        ("seeds", Results.int (List.length seeds)) ]
    ~columns:
      Results.
        [ param "scenario"; param "delay"; measure "outcome";
          measure "schedule legality / verdict" ]
    [ forced_row 1;
      forced_row safe_delay;
      sampled_row
        (Printf.sprintf "semi-sync(delta=%d), sampled" delta)
        semi safe_delay;
      sampled_row "async (random), sampled" async 1 ]

let shape = function
  | [ t ] ->
    let open Experiment_def in
    let verdict ~prefix =
      List.find_map
        (fun row ->
          match Results.get t ~row "scenario" with
          | Results.Text s when String.starts_with ~prefix s ->
            Some (Results.to_text (Results.get t ~row "schedule legality / verdict"))
          | _ -> None)
        t.Results.rows
    in
    check
      (verdict ~prefix:"semi-sync" = Some "safe")
      "e11: Fischer should be safe under the semi-synchronous schedule"
    >>> fun () ->
    check
      (verdict ~prefix:"async (random)" = Some "UNSAFE")
      "e11: Fischer should be violable under full asynchrony"
    >>> fun () ->
    check
      (List.exists
         (fun row ->
           Results.get t ~row "delay" = Results.Int 1
           && Results.get t ~row "outcome" = Results.Text "both entered CS")
         t.Results.rows)
      "e11: the forced overlap should defeat a too-small delay"
  | _ -> Error "e11: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e11";
      title = "Fischer's timing-based lock vs the timing assumption";
      claim;
      shape_note =
        "semi-synchronous sampling is safe, asynchronous sampling is \
         UNSAFE, and the forced overlap defeats a too-small delay";
      run =
        (fun ~jobs size ->
          match size with
          | Default -> [ table ~jobs () ]
          | Reduced -> [ table ~jobs ~n:reduced_n ~seeds:reduced_seeds () ]);
      shape }
