(* The simulated multiprocessor.

   State is fully persistent: advancing the machine returns a new machine,
   so snapshots (needed by the stability check of Def. 6.8) are free, and
   branching explorations (the adversary's trial erasures) cost nothing.

   Every state-changing action is also appended to a replayable trace.  The
   trace is the history in the proof's sense: erasing a process (Lemma 6.7)
   is implemented as replaying the trace without that process's events, and
   erasing one that has no events returns the machine unchanged.  If
   the erased process was visible to a survivor — i.e. the history minus the
   process is not a legal history of the algorithm — replay detects the
   divergence and reports it instead of silently producing garbage. *)

module Pid_map = Map.Make (Int)
module Pid_set = Set.Make (Int)

type run = {
  program : Op.value Program.t;
  label : string;
  seq : int;
  started : int;
  run_rmrs : int;
  run_steps : int;
}

type proc_state = Idle | Running of run | Terminated

type event =
  | E_begin of Op.pid * string * Op.value Program.t
  | E_advance of Op.pid
  | E_terminate of Op.pid
  | E_crash of Op.pid

type t = {
  n : int;
  layout : Var.layout;
  mem : Memory.t;
  model : Cost_model.t;
  model0 : Cost_model.t; (* pristine model, for replay *)
  procs : proc_state Pid_map.t;
  clock : int;
  lean : bool; (* skip per-step history (steps_rev) and replay trace *)
  steps_rev : History.step list;
  calls_rev : History.call list;
  trace_rev : event list;
  participated : Pid_set.t;
  rmr_by_pid : int Pid_map.t;
      (* RMRs in *finished* (completed or crashed) calls; the in-flight
         call's tally lives in its [run] record and is added by the
         accessors, so the hot stepping path updates no map *)
  steps_by_pid : int Pid_map.t; (* same folding discipline as rmr_by_pid *)
  seq_by_pid : int Pid_map.t; (* next call ordinal per process *)
  done_by_pid : int Pid_map.t; (* calls completed (crashed excluded) per process *)
  last_by_pid : Op.value option Pid_map.t;
      (* result of the latest completed-or-crashed call per process:
         [Some v] completed with [v], [None] crashed.  Mirrors the newest
         calls_rev record of the process, but is O(log n) to read. *)
  total_rmrs_c : int; (* running totals, so accounting views are O(1) *)
  total_messages_c : int;
  ends_rev : (Op.pid * int * bool) list; (* terminations/crashes: pid, tick, crashed *)
  tracer : Obs.Trace.t option;
}

exception Replay_divergence of { pid : Op.pid; time : int; detail : string }

let create ~model ~layout ~n =
  { n;
    layout;
    mem = Memory.create layout;
    model;
    model0 = model;
    procs = Pid_map.empty;
    clock = 0;
    lean = false;
    steps_rev = [];
    calls_rev = [];
    trace_rev = [];
    participated = Pid_set.empty;
    rmr_by_pid = Pid_map.empty;
    steps_by_pid = Pid_map.empty;
    seq_by_pid = Pid_map.empty;
    done_by_pid = Pid_map.empty;
    last_by_pid = Pid_map.empty;
    total_rmrs_c = 0;
    total_messages_c = 0;
    ends_rev = [];
    tracer = None }

let tracer t = t.tracer

let with_tracer t tracer = { t with tracer }

(* Lean (history-free) stepping: from this point on the machine stops
   accumulating the per-step history ([steps] will be empty) and the
   replayable trace ([replay]/[erase] become unavailable), while every
   counter — clock, per-process and total RMR/step/call tallies, last
   results, call records, ends — is maintained exactly as in full mode,
   for callers that read only counters and call records (the fuzz
   lattice's lean-vs-full oracle checks that promise). *)
let lean_mode t =
  if t.steps_rev <> [] || t.trace_rev <> [] then
    invalid_arg "Sim.lean_mode: machine already has recorded history"
  else { t with lean = true }

let is_lean t = t.lean

(* Observation events are purely additive: on [None] nothing is allocated
   or computed, which is the zero-cost-when-disabled contract.  Every site
   therefore builds its event under [Some tr] only — an event passed as an
   argument would be built (its variable name rendered, its record
   allocated) before a tracerless machine dropped it. *)

let n t = t.n
let layout t = t.layout
let memory t = t.mem
let clock t = t.clock

let proc_state t p =
  match Pid_map.find_opt p t.procs with Some st -> st | None -> Idle

let is_idle t p = proc_state t p = Idle
let is_terminated t p = proc_state t p = Terminated

let is_running t p =
  match proc_state t p with Running _ -> true | Idle | Terminated -> false

let steps t = List.rev t.steps_rev

(* Completed and crashed calls, in completion order, followed by calls
   still in flight (begun but unfinished).  Including pending calls
   matters: Specification 4.1 quantifies over calls that have *begun*
   (e.g. a Poll may return true as soon as some Signal has begun, even if
   that Signal never completes). *)
let calls t =
  let pending =
    Pid_map.fold
      (fun p st acc ->
        match st with
        | Running r ->
          { History.c_pid = p;
            c_label = r.label;
            c_seq = r.seq;
            c_started = r.started;
            c_finished = None;
            c_result = None;
            c_rmrs = r.run_rmrs;
            c_steps = r.run_steps }
          :: acc
        | Idle | Terminated -> acc)
      t.procs []
  in
  List.rev_append t.calls_rev pending

let participants t = t.participated

let peek t p =
  match proc_state t p with
  | Running r -> Program.next_invocation r.program
  | Idle | Terminated -> None

(* Whether p's next operation would be an RMR; [None] when p has no pending
   operation or the classification depends on the operation's outcome. *)
let next_is_rmr t p =
  match peek t p with
  | None -> None
  | Some inv -> Cost_model.predict t.model p inv

let tick t = { t with clock = t.clock + 1 }

let find_count map p =
  match Pid_map.find_opt p map with Some v -> v | None -> 0

let complete_call t p (r : run) result =
  let finished = t.clock in
  let call =
    { History.c_pid = p;
      c_label = r.label;
      c_seq = r.seq;
      c_started = r.started;
      c_finished = Some finished;
      c_result = Some result;
      c_rmrs = r.run_rmrs;
      c_steps = r.run_steps }
  in
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Call_end
         { t = finished; pid = p; label = r.label; seq = r.seq;
           result; rmrs = r.run_rmrs; steps = r.run_steps }));
  (* One record copy for the whole completion; the call's step/RMR tallies
     are folded into the per-process totals here, not on every step. *)
  { t with
    clock = finished + 1;
    procs = Pid_map.add p Idle t.procs;
    calls_rev = call :: t.calls_rev;
    done_by_pid = Pid_map.add p (find_count t.done_by_pid p + 1) t.done_by_pid;
    last_by_pid = Pid_map.add p (Some result) t.last_by_pid;
    rmr_by_pid =
      (if r.run_rmrs = 0 then t.rmr_by_pid
       else Pid_map.add p (find_count t.rmr_by_pid p + r.run_rmrs) t.rmr_by_pid);
    steps_by_pid =
      (if r.run_steps = 0 then t.steps_by_pid
       else
         Pid_map.add p (find_count t.steps_by_pid p + r.run_steps) t.steps_by_pid) }

(* Internal: perform a begin without recording a trace event (replay uses
   this too, via the shared implementation with [record] = false). *)
let begin_call_gen ~record t p ~label program =
  (match proc_state t p with
  | Idle -> ()
  | Running _ -> invalid_arg "Sim.begin_call: process already in a call"
  | Terminated -> invalid_arg "Sim.begin_call: process terminated");
  let trace_rev =
    if record && not t.lean then E_begin (p, label, program) :: t.trace_rev
    else t.trace_rev
  in
  let started = t.clock in
  let seq = find_count t.seq_by_pid p in
  let r = { program; label; seq; started; run_rmrs = 0; run_steps = 0 } in
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr (Obs.Event.Call_begin { t = started; pid = p; label; seq }));
  (* One record copy per branch (a zero-step program completes on the spot,
     so that branch pays [complete_call]'s copy instead of a [procs] one). *)
  match program with
  | Program.Return v ->
    complete_call
      { t with
        trace_rev;
        clock = started + 1;
        participated = Pid_set.add p t.participated;
        seq_by_pid = Pid_map.add p (seq + 1) t.seq_by_pid }
      p r v
  | Program.Step _ ->
    { t with
      trace_rev;
      clock = started + 1;
      participated = Pid_set.add p t.participated;
      seq_by_pid = Pid_map.add p (seq + 1) t.seq_by_pid;
      procs = Pid_map.add p (Running r) t.procs }

let advance_gen ~record ?(check : Op.value option) t p =
  let r =
    match proc_state t p with
    | Running r -> r
    | Idle -> invalid_arg "Sim.advance: process is idle"
    | Terminated -> invalid_arg "Sim.advance: process terminated"
  in
  match r.program with
  | Program.Return _ -> assert false (* begin/advance never leave a Return *)
  | Program.Step (inv, k) ->
    let trace_rev =
      if record && not t.lean then E_advance p :: t.trace_rev else t.trace_rev
    in
    let { Memory.memory; response; wrote; read_from } =
      Memory.apply t.mem ~pid:p inv
    in
    (match check with
    | Some expected when expected <> response ->
      raise
        (Replay_divergence
           { pid = p;
             time = t.clock;
             detail =
               Printf.sprintf "%s responded %d, originally %d"
                 (Op.show_invocation inv) response expected })
    | _ -> ());
    (* A traced step hands the cost model its trace and tick, so the model's
       own events (CC cache actions) land before the step's; a replay runs
       on a tracerless machine and hands none. *)
    let trace =
      match t.tracer with None -> None | Some tr -> Some (tr, t.clock)
    in
    let model, { Cost_model.rmr; messages } =
      Cost_model.account ?trace t.model p inv ~wrote
    in
    let time = t.clock in
    (* The step record (and its trace event) exists only in full-history
       mode; lean mode keeps every counter below but allocates neither. *)
    let steps_rev =
      if t.lean then t.steps_rev
      else begin
        let step =
          { History.time;
            pid = p;
            inv;
            response;
            wrote;
            read_from;
            home = Var.layout_home t.layout (Op.addr_of inv);
            rmr;
            messages;
            call_seq = r.seq }
        in
        (match t.tracer with
        | None -> ()
        | Some tr ->
          Obs.Trace.emit tr
            (Obs.Event.Op_step
               { t = time;
                 pid = p;
                 kind = Op.kind_name (Op.kind inv);
                 addr = Op.addr_of inv;
                 var = Var.layout_name t.layout (Op.addr_of inv);
                 home =
                   (match step.History.home with
                   | Var.Module i -> Obs.Event.Module i
                   | Var.Shared -> Obs.Event.Shared);
                 response;
                 wrote;
                 rmr;
                 messages;
                 model = Cost_model.name model;
                 call_seq = r.seq }));
        step :: t.steps_rev
      end
    in
    let run_rmrs = (r.run_rmrs + if rmr then 1 else 0) in
    let run_steps = r.run_steps + 1 in
    let total_rmrs_c = (t.total_rmrs_c + if rmr then 1 else 0) in
    let total_messages_c = t.total_messages_c + messages in
    (* Exactly one machine copy per step (the per-process step/RMR maps are
       folded at call end, not here): the stepping path allocates the new
       memory, the step's own bookkeeping, and nothing else. *)
    (match k response with
    | Program.Return v ->
      complete_call
        { t with
          mem = memory;
          model;
          clock = time + 1;
          trace_rev;
          steps_rev;
          total_rmrs_c;
          total_messages_c }
        p
        { r with program = Program.Return v; run_rmrs; run_steps }
        v
    | Program.Step _ as program ->
      { t with
        mem = memory;
        model;
        clock = time + 1;
        trace_rev;
        steps_rev;
        total_rmrs_c;
        total_messages_c;
        procs = Pid_map.add p (Running { r with program; run_rmrs; run_steps }) t.procs })

let begin_call t p ~label program = begin_call_gen ~record:true t p ~label program

let advance t p = advance_gen ~record:true t p

let terminate t p =
  (match proc_state t p with
  | Idle -> ()
  | Running _ -> invalid_arg "Sim.terminate: process mid-call"
  | Terminated -> invalid_arg "Sim.terminate: already terminated");
  let t =
    if t.lean then t else { t with trace_rev = E_terminate p :: t.trace_rev }
  in
  let t = tick t in
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Proc_exit { t = t.clock - 1; pid = p; crashed = false }));
  { t with
    procs = Pid_map.add p Terminated t.procs;
    ends_rev = (p, t.clock - 1, false) :: t.ends_rev }

(* A crash: the process stops taking steps, possibly mid-call (paper,
   Sec. 2: "a process crashes if it terminates while performing a procedure
   call").  The interrupted call is recorded as begun-but-unfinished, which
   is exactly how Specification 4.1 treats it: never judged. *)
let crash_gen ~record t p =
  let t =
    if record && not t.lean then
      { t with trace_rev = E_crash p :: t.trace_rev }
    else t
  in
  let t = tick t in
  let t =
    match proc_state t p with
    | Idle | Terminated -> t
    | Running r ->
      let call =
        { History.c_pid = p;
          c_label = r.label;
          c_seq = r.seq;
          c_started = r.started;
          c_finished = None;
          c_result = None;
          c_rmrs = r.run_rmrs;
          c_steps = r.run_steps }
      in
      (match t.tracer with
      | None -> ()
      | Some tr ->
        Obs.Trace.emit tr
          (Obs.Event.Call_crash
             { t = t.clock - 1; pid = p; label = r.label; seq = r.seq;
               rmrs = r.run_rmrs; steps = r.run_steps }));
      { t with
        calls_rev = call :: t.calls_rev;
        last_by_pid = Pid_map.add p None t.last_by_pid;
        (* the interrupted call is finished now: fold its tallies, as
           [complete_call] does for completed calls *)
        rmr_by_pid =
          (if r.run_rmrs = 0 then t.rmr_by_pid
           else
             Pid_map.add p (find_count t.rmr_by_pid p + r.run_rmrs) t.rmr_by_pid);
        steps_by_pid =
          (if r.run_steps = 0 then t.steps_by_pid
           else
             Pid_map.add p
               (find_count t.steps_by_pid p + r.run_steps)
               t.steps_by_pid) }
  in
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Obs.Trace.emit tr
      (Obs.Event.Proc_exit { t = t.clock - 1; pid = p; crashed = true }));
  { t with
    procs = Pid_map.add p Terminated t.procs;
    ends_rev = (p, t.clock - 1, true) :: t.ends_rev }

let crash t p = crash_gen ~record:true t p

let rec run_to_idle ?(fuel = 1_000_000) t p =
  match proc_state t p with
  | Idle | Terminated -> t
  | Running _ ->
    if fuel = 0 then failwith "Sim.run_to_idle: out of fuel"
    else run_to_idle ~fuel:(fuel - 1) (advance t p) p

let run_call ?fuel t p ~label program =
  let t = begin_call t p ~label program in
  let t = run_to_idle ?fuel t p in
  match t.calls_rev with
  | c :: _ when c.History.c_pid = p -> (t, Option.get c.History.c_result)
  | _ -> assert false

(* --- accounting views --- *)

(* Per-process tallies: the finished-calls fold plus the in-flight call's
   own counters (kept in its [run] record so stepping updates no map). *)
let rmrs t p =
  find_count t.rmr_by_pid p
  + (match proc_state t p with Running r -> r.run_rmrs | Idle | Terminated -> 0)

let total_rmrs t = t.total_rmrs_c

let total_messages t = t.total_messages_c

let step_count t p =
  find_count t.steps_by_pid p
  + (match proc_state t p with Running r -> r.run_steps | Idle | Terminated -> 0)

let call_count t p = find_count t.seq_by_pid p

let completed_count t p = find_count t.done_by_pid p

let last_step t = match t.steps_rev with [] -> None | s :: _ -> Some s

let ends t = List.rev t.ends_rev

(* The outcome of the process's most recent call, pending calls excluded:
   the [last_by_pid] mirror of the newest calls_rev record — O(log n)
   instead of a scan of the recorded history, and independent of whether
   the machine keeps one. *)
let last_result t p =
  match Pid_map.find_opt p t.last_by_pid with Some r -> r | None -> None

let calls_of t p =
  List.rev
    (List.filter (fun (c : History.call) -> c.History.c_pid = p) t.calls_rev)

(* --- replay / erasure (Lemma 6.7) --- *)

let trace t = List.rev t.trace_rev

(* Original responses per surviving process, in program order, to validate
   replay against. *)
let responses_by_pid t keep =
  List.fold_left
    (fun acc (s : History.step) ->
      if keep s.pid then
        Pid_map.update s.pid
          (function None -> Some [ s.response ] | Some l -> Some (s.response :: l))
          acc
      else acc)
    Pid_map.empty t.steps_rev
(* steps_rev is reverse-chronological, so the accumulated lists come out in
   chronological order. *)

let replay ?(check = true) ~keep t =
  if t.lean then
    invalid_arg "Sim.replay: a lean machine keeps no replayable trace";
  let expected = if check then responses_by_pid t keep else Pid_map.empty in
  let fresh = create ~model:t.model0 ~layout:t.layout ~n:t.n in
  let step_one (sim, exp) ev =
    match ev with
    | E_begin (p, label, program) ->
      if keep p then (begin_call_gen ~record:true sim p ~label program, exp)
      else (sim, exp)
    | E_advance p ->
      if not (keep p) then (sim, exp)
      else if not check then (advance_gen ~record:true sim p, exp)
      else (
        match Pid_map.find_opt p exp with
        | Some (v :: rest) ->
          ( advance_gen ~record:true ~check:v sim p,
            Pid_map.add p rest exp )
        | Some [] | None ->
          (* More steps than the original had; impossible since the trace is
             a prefix-faithful copy. *)
          assert false)
    | E_terminate p -> if keep p then (terminate sim p, exp) else (sim, exp)
    | E_crash p -> if keep p then (crash_gen ~record:true sim p, exp) else (sim, exp)
  in
  let sim, _ = List.fold_left step_one (fresh, expected) (trace t) in
  (* The replay itself is silent ([fresh] has no tracer — re-running the
     surviving steps must not re-emit their events), but the machine that
     continues from here is still the traced one. *)
  { sim with tracer = t.tracer }

(* A victim with no recorded event (never began a call, never crashed or
   terminated) is invisible to everyone, so the replay without it would
   rebuild this very machine: drop it, and replay only for the rest.  A
   lean machine still goes through [replay], which refuses it. *)
let erase t pids =
  let has_events p = Pid_set.mem p t.participated || not (is_idle t p) in
  match List.filter has_events pids with
  | [] when not t.lean -> t
  | victims ->
    let doomed = Pid_set.of_list victims in
    replay ~check:true ~keep:(fun p -> not (Pid_set.mem p doomed)) t

let can_erase t pids =
  match erase t pids with
  | (_ : t) -> true
  | exception Replay_divergence _ -> false

let pp_proc_state ppf = function
  | Idle -> Fmt.string ppf "idle"
  | Terminated -> Fmt.string ppf "terminated"
  | Running r -> Fmt.pf ppf "in %s#%d (%d steps)" r.label r.seq r.run_steps

let pp ppf t =
  Fmt.pf ppf "sim: n=%d clock=%d steps=%d rmrs=%d@." t.n t.clock
    (Pid_map.fold
       (fun _ c acc -> acc + c)
       t.steps_by_pid
       (Pid_map.fold
          (fun _ st acc ->
            match st with
            | Running r -> acc + r.run_steps
            | Idle | Terminated -> acc)
          t.procs 0))
    (total_rmrs t);
  Pid_set.iter
    (fun p -> Fmt.pf ppf "  p%d: %a@." p pp_proc_state (proc_state t p))
    t.participated
