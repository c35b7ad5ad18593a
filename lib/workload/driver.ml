(* The open-system workload driver.

   A closed scenario (Scenario.run_phased) fixes the participants and runs
   a phase script; experiments over k = 10^6 processes need the opposite: an
   open system where waiters join according to an arrival process, perform
   a few Poll() calls, and leave — possibly crashing mid-call — while a
   signaler issues Signal() on its own cadence.  This driver runs that loop
   over {!Smr.Flat_sim} with streaming accounting only: per-call RMR and
   latency figures go into Welford accumulators ({!Stats}), the
   Specification 4.1 verdict is checked on the fly against the earliest
   signal extents, and nothing whose size grows with the run is ever
   materialized.

   Everything observable is a function of the spec (seed included): no wall
   clock, no [Random], no iteration over hash tables.  Wall-time figures
   (states/sec) are the caller's business — they must stay out of anything
   that is diffed for determinism. *)

open Smr

let poll_label = "poll"
let signal_label = "signal"

(* The driver's view of a signaling algorithm: fresh program values for one
   Poll() or Signal() by the given process.  Structural (not
   [Signaling.POLLING]) so this library depends only on [smr];
   [Core.Loadgen] adapts instantiated algorithms to it. *)
type instance = {
  w_name : string;
  w_poll : Op.pid -> Op.value Program.t;
  w_signal : Op.pid -> Op.value Program.t;
}

type spec = {
  seed : int;
  waiters : int; (* waiters that join over the whole run (pids 1..waiters) *)
  polls_per_waiter : int;
  signals : int; (* Signal() calls the signaler (pid 0) issues *)
  signal_every : int; (* ticks between consecutive signal begins *)
  arrivals : Arrivals.spec;
  crash_prob : float; (* chance a beginning poll will crash mid-call *)
  leave_early_prob : float; (* chance a waiter leaves between its polls *)
  fuel : int; (* step budget; exceeded -> [r_fuel_exhausted] *)
}

let default_spec =
  { seed = 1;
    waiters = 100;
    polls_per_waiter = 2;
    signals = 8;
    signal_every = 64;
    arrivals = Arrivals.Poisson 2.0;
    crash_prob = 0.0;
    leave_early_prob = 0.0;
    fuel = 100_000_000 }

type report = {
  r_algorithm : string;
  r_model : string;
  r_waiters : int; (* waiters that joined *)
  r_left : int; (* waiters that terminated cleanly *)
  r_left_early : int; (* of those, waiters that cut their poll budget short *)
  r_crashes : int; (* calls interrupted by a crash *)
  r_polls : int; (* completed Poll() calls *)
  r_polls_true : int;
  r_signals : int; (* completed Signal() calls *)
  r_clock : int;
  r_steps : int;
  r_total_rmrs : int;
  r_total_messages : int;
  r_signaler_rmrs : int;
  r_poll_rmrs : Stats.summary;
  r_signal_rmrs : Stats.summary;
  r_poll_latency : Stats.summary;
  r_signal_latency : Stats.summary;
  r_spec_ok : bool; (* streaming Specification 4.1 verdict *)
  r_fuel_exhausted : bool;
  r_bytes_per_process : int;
}

(* Amortized views the experiments chart. *)
let rmrs_per_signal r =
  if r.r_signals = 0 then 0.0
  else float_of_int r.r_signaler_rmrs /. float_of_int r.r_signals

let rmrs_per_op r =
  let ops = r.r_polls + r.r_signals in
  if ops = 0 then 0.0 else float_of_int r.r_total_rmrs /. float_of_int ops

(* The rules a spec must satisfy, each named by the `load`/`profile` flag
   that sets its field.  [run] raises from them and the CLI refuses what
   they refuse, so they exist once. *)
let validate spec =
  let ( let* ) = Result.bind in
  let at_least lo name v =
    if v < lo then Error (Printf.sprintf "%s must be >= %d, got %d" name lo v)
    else Ok ()
  in
  let probability name p =
    if p >= 0.0 && p <= 1.0 then Ok ()
    else Error (Printf.sprintf "%s must be in [0, 1], got %g" name p)
  in
  let* () = at_least 0 "--waiters" spec.waiters in
  let* () = at_least 1 "--polls" spec.polls_per_waiter in
  let* () = at_least 0 "--signals" spec.signals in
  let* () = at_least 0 "--signal-every" spec.signal_every in
  let* () = probability "--crash-prob" spec.crash_prob in
  let* () = probability "--leave-prob" spec.leave_early_prob in
  Result.map_error (( ^ ) "--arrivals: ") (Arrivals.validate spec.arrivals)

let run ?ll_ways ?counters ?on_cache ~model ~layout ~n (inst : instance) spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Driver.run: " ^ msg));
  if n < spec.waiters + 1 then
    invalid_arg "Driver.run: need n >= waiters + 1 (pid 0 is the signaler)";
  let rng = Rng.create spec.seed in
  let arr = Arrivals.make spec.arrivals in
  (* --- streaming accumulators --- *)
  let polls = ref 0 and polls_true = ref 0 and signals_done = ref 0 in
  let crashes = ref 0 and left = ref 0 and left_early = ref 0 in
  let poll_rmrs = Stats.create () and signal_rmrs = Stats.create () in
  let poll_lat = Stats.create () and signal_lat = Stats.create () in
  let signaler_rmrs = ref 0 in
  (* Earliest signal extents, maintained on the fly: begins are recorded by
     the driver (it issues them, so every begin at or before the current
     tick is already in), finishes by the completion callback.  Logical
     time is monotonic, which makes the streaming check exact: when a poll
     completes, any signal not yet begun starts later than this poll
     finished, and any signal not yet completed finishes after this poll
     started. *)
  let earliest_sig_start = ref max_int in
  let earliest_sig_finish = ref max_int in
  let spec_ok = ref true in
  let on_complete ~pid ~label:_ ~seq:_ ~started ~finished ~crashed ~result
      ~rmrs ~steps:_ =
    if crashed then incr crashes
    else if pid = 0 then begin
      incr signals_done;
      signaler_rmrs := !signaler_rmrs + rmrs;
      if finished < !earliest_sig_finish then earliest_sig_finish := finished;
      Stats.add_int signal_rmrs rmrs;
      Stats.add_int signal_lat (finished - started)
    end
    else begin
      incr polls;
      if result = 1 then begin
        incr polls_true;
        if not (!earliest_sig_start < finished) then spec_ok := false
      end
      else if !earliest_sig_finish < started then spec_ok := false;
      Stats.add_int poll_rmrs rmrs;
      Stats.add_int poll_lat (finished - started)
    end
  in
  let flat =
    Flat_sim.create ?ll_ways ?counters ?on_cache ~on_complete ~model ~layout ~n
      ()
  in
  (* --- scheduler state --- *)
  let active = Array.make n 0 in
  let active_count = ref 0 in
  let push p =
    active.(!active_count) <- p;
    incr active_count
  in
  let remove i =
    decr active_count;
    active.(i) <- active.(!active_count)
  in
  let polls_left = Array.make n 0 in
  let crash_in = Array.make n (-1) in
  let arrived = ref 0 in
  let next_arrival = ref 0 in
  let signals_begun = ref 0 in
  let next_signal = ref 0 in
  let fuel_exhausted = ref false in
  let begin_poll p =
    (* 0 means "crash before the first step": a one-effect poll (a bare
       flag read) must be crashable too, and the sweep checks the counter
       before advancing. *)
    crash_in.(p) <-
      (if spec.crash_prob > 0.0 && Rng.bool rng spec.crash_prob then
         Rng.int rng 4
       else -1);
    Flat_sim.begin_call flat p ~label:poll_label (inst.w_poll p)
  in
  let running = ref true in
  while !running do
    (* 1. admit every arrival already due *)
    while !arrived < spec.waiters && !next_arrival <= Flat_sim.clock flat do
      let p = !arrived + 1 in
      incr arrived;
      polls_left.(p) <- spec.polls_per_waiter;
      begin_poll p;
      push p;
      next_arrival := !next_arrival + Arrivals.next_gap arr rng
    done;
    (* 2. start a signal when its cadence says so *)
    if
      !signals_begun < spec.signals
      && !next_signal <= Flat_sim.clock flat
      && Flat_sim.is_idle flat 0
    then begin
      incr signals_begun;
      let started = Flat_sim.clock flat in
      if started < !earliest_sig_start then earliest_sig_start := started;
      Flat_sim.begin_call flat 0 ~label:signal_label (inst.w_signal 0);
      next_signal := started + spec.signal_every;
      if Flat_sim.is_running flat 0 then push 0
    end;
    (* 3. one sweep: each active process takes one step *)
    if !active_count = 0 then begin
      (* Nobody can step.  Fast-forward to the next due event, or stop. *)
      let due = ref max_int in
      if !arrived < spec.waiters then due := min !due !next_arrival;
      if !signals_begun < spec.signals then due := min !due !next_signal;
      if !due = max_int then running := false
      else Flat_sim.skip_to flat !due
    end
    else begin
      let i = ref 0 in
      while !i < !active_count do
        let p = active.(!i) in
        if crash_in.(p) = 0 then begin
          Flat_sim.crash flat p;
          remove !i
        end
        else begin
          if crash_in.(p) > 0 then crash_in.(p) <- crash_in.(p) - 1;
          Flat_sim.advance flat p;
          if Flat_sim.is_running flat p then incr i
          else if p = 0 then (* signal completed; idle until next cadence *)
            remove !i
          else begin
            polls_left.(p) <- polls_left.(p) - 1;
            if
              polls_left.(p) > 0
              && spec.leave_early_prob > 0.0
              && Rng.bool rng spec.leave_early_prob
            then begin
              polls_left.(p) <- 0;
              incr left_early
            end;
            if polls_left.(p) > 0 then begin
              begin_poll p;
              (* polls always take at least one step, but stay robust to a
                 degenerate instance whose poll is a bare Return *)
              if Flat_sim.is_running flat p then incr i else remove !i
            end
            else begin
              Flat_sim.terminate flat p;
              incr left;
              remove !i
            end
          end
        end
      done
    end;
    if Flat_sim.total_steps flat > spec.fuel then begin
      fuel_exhausted := true;
      running := false
    end
  done;
  { r_algorithm = inst.w_name;
    r_model = Flat_sim.model_name flat;
    r_waiters = !arrived;
    r_left = !left;
    r_left_early = !left_early;
    r_crashes = !crashes;
    r_polls = !polls;
    r_polls_true = !polls_true;
    r_signals = !signals_done;
    r_clock = Flat_sim.clock flat;
    r_steps = Flat_sim.total_steps flat;
    r_total_rmrs = Flat_sim.total_rmrs flat;
    r_total_messages = Flat_sim.total_messages flat;
    r_signaler_rmrs = !signaler_rmrs;
    r_poll_rmrs = Stats.summary poll_rmrs;
    r_signal_rmrs = Stats.summary signal_rmrs;
    r_poll_latency = Stats.summary poll_lat;
    r_signal_latency = Stats.summary signal_lat;
    r_spec_ok = !spec_ok;
    r_fuel_exhausted = !fuel_exhausted;
    r_bytes_per_process = Flat_sim.bytes_per_process flat }
