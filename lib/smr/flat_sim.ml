(* The flat-state simulation engine: the billing-path counterpart of {!Sim}.

   [Sim] is persistent — every step copies the machine record and threads
   persistent maps — because the adversary and the explorer need O(1)
   snapshots and replayable history.  The open-system workload driver needs
   neither: it only ever moves forward, but it moves forward a lot (k up to
   10^6 processes, millions of steps).  This engine holds the same machine
   semantics in mutable struct-of-arrays form: dense int arrays indexed by
   address for memory, dense int arrays indexed by pid for call state, so
   one step is O(1) work and the engine's own billing allocates nothing.
   A step still costs minor words — the program's Step node, continuation
   and bind closures, and [Op.execute]'s result record: 24.0 words/step on
   bench/suite's load-cc and 37.5 on load-dsm, constant in n and k.

   Equivalence contract (enforced by the differential suite in
   test/test_flat.ml): given the same layout, schedule and model, this
   engine produces the same responses, the same per-call RMR/step tallies,
   the same timestamps and the same memory contents as [Sim] — for DSM
   always, and for CC whenever every process's live cache footprint fits in
   [ways] lines, or [Sim]'s [Cc] model has capacity [ways].  A process
   holds at most one line and one link record per cell, so [ways] and
   [ll_ways] are capped at the layout size, past which no eviction or link
   overflow can happen.  Both engines bill CC through [Cc.decide]; only
   the stores differ.

   The cache-coherence bookkeeping avoids [Sim]'s per-process address maps
   with an epoch scheme:

   - [cc_epoch.(a)] is bumped by every invalidating write to [a]; a cache
     entry [(a, stamp)] is valid iff [stamp = cc_epoch.(a)], so one bump
     invalidates every copy lazily, in O(1).
   - [sharers.(a)] counts the currently valid copies of [a], so the
     directory message count for an invalidation is a subtraction, not a
     scan of the processes.
   - [owner.(a)] is the write-back exclusive owner (-1 = none).
   - A line's LRU stamp is the clock at its last use; each step ticks the
     clock and touches at most one line, so the stamps order uses exactly.

   Load-links use the same trick: [ll_epoch.(a)] is bumped by every
   nontrivial operation on [a] (which is exactly when {!Memory} empties the
   cell's link set, the writer's own link included), and a process's link
   record [(a, stamp)] is valid iff the stamp still matches.  The records
   are allocated by the first [Ll]; most catalog algorithms issue none. *)

type complete_cb =
  pid:Op.pid ->
  label:string ->
  seq:int ->
  started:int ->
  finished:int ->
  crashed:bool ->
  result:Op.value ->
  rmrs:int ->
  steps:int ->
  unit

type cache_cb =
  t:int -> pid:Op.pid -> addr:Op.addr -> action:string -> messages:int -> unit

type model_spec =
  | Dsm
  | Cc of { protocol : Cc.protocol; interconnect : Cc.interconnect; ways : int }

let model_spec_name = function
  | Dsm -> "dsm"
  | Cc { protocol; interconnect; ways } ->
    Printf.sprintf "%s/%s/w%d"
      (Cc.protocol_name protocol)
      (Cc.interconnect_name interconnect)
      ways

(* Process states, packed into a byte array. *)
let st_idle = '\000'
let st_running = '\001'
let st_terminated = '\002'

(* last-call outcomes *)
let last_none = '\000'
let last_completed = '\001'
let last_crashed = '\002'

let no_program : Op.value Program.t = Program.Return 0

let nop_complete ~pid:_ ~label:_ ~seq:_ ~started:_ ~finished:_ ~crashed:_
    ~result:_ ~rmrs:_ ~steps:_ =
  ()

let nop_cache ~t:_ ~pid:_ ~addr:_ ~action:_ ~messages:_ = ()

type t = {
  n : int;
  layout : Var.layout;
  size : int;
  spec : model_spec;
  (* --- flat memory (per address) --- *)
  values : int array;
  ll_epoch : int array;
  (* --- load-link records (per process, [ll_ways] slots) --- *)
  ll_ways : int;
  mutable ll_addr : int array; (* n * ll_ways, -1 = free; [||] before any Ll *)
  mutable ll_stamp : int array;
  (* --- CC cache state (length-0 arrays under Dsm) --- *)
  ways : int;
  cache_addr : int array; (* n * ways; -1 = never filled *)
  cache_stamp : int array;
  cache_lru : int array; (* clock at the line's last use *)
  cc_epoch : int array; (* per address *)
  sharers : int array; (* valid copies per address *)
  owner : int array; (* write-back exclusive owner per address; -1 = none *)
  (* --- per-process call state --- *)
  state : Bytes.t;
  progs : Op.value Program.t array;
  labels : string array;
  started : int array;
  run_rmrs : int array;
  run_steps : int array;
  next_seq : int array; (* calls begun; the in-flight call is the last *)
  rmr_cum : int array; (* RMRs folded in at call end, as in Sim *)
  steps_cum : int array;
  last_kind : Bytes.t;
  last_val : int array;
  (* --- totals and the clock --- *)
  mutable clock : int;
  mutable total_rmrs : int;
  mutable total_messages : int;
  mutable total_steps : int;
  mutable completed_total : int;
  mutable crashed_total : int;
  on_complete : complete_cb;
  (* --- observability (both optional; the hot path stays allocation-free
     whether or not they are armed) --- *)
  counters : Obs.Counters.t option;
  on_cache : cache_cb;
}

let create ?(on_complete = nop_complete) ?counters ?(on_cache = nop_cache)
    ?(ll_ways = 4) ~model ~layout ~n () =
  let size = Var.layout_size layout in
  let values = Array.init size (Var.layout_init layout) in
  (match counters with
  | None -> ()
  | Some c ->
    (* The bump path uses unchecked writes, so the planes must cover every
       (pid, addr) this machine can issue. *)
    if Obs.Counters.n c < n || Obs.Counters.size c < size then
      invalid_arg "Flat_sim.create: counter planes smaller than the machine");
  let ways =
    match model with
    | Dsm -> 0
    | Cc { ways; _ } ->
      if ways <= 0 then invalid_arg "Flat_sim.create: ways must be positive";
      min ways size
  in
  { n;
    layout;
    size;
    spec = model;
    values;
    ll_epoch = Array.make size 0;
    ll_ways = min ll_ways size;
    ll_addr = [||];
    ll_stamp = [||];
    ways;
    cache_addr = Array.make (n * ways) (-1);
    cache_stamp = Array.make (n * ways) 0;
    cache_lru = Array.make (n * ways) 0;
    cc_epoch = Array.make (if ways = 0 then 0 else size) 0;
    sharers = Array.make (if ways = 0 then 0 else size) 0;
    owner = Array.make (if ways = 0 then 0 else size) (-1);
    state = Bytes.make n st_idle;
    progs = Array.make n no_program;
    labels = Array.make n "";
    started = Array.make n 0;
    run_rmrs = Array.make n 0;
    run_steps = Array.make n 0;
    next_seq = Array.make n 0;
    rmr_cum = Array.make n 0;
    steps_cum = Array.make n 0;
    last_kind = Bytes.make n last_none;
    last_val = Array.make n 0;
    clock = 0;
    total_rmrs = 0;
    total_messages = 0;
    total_steps = 0;
    completed_total = 0;
    crashed_total = 0;
    on_complete;
    counters;
    on_cache }

let n t = t.n
let layout t = t.layout
let clock t = t.clock
let model_name t = model_spec_name t.spec
let counters t = t.counters

let is_idle t p = Bytes.unsafe_get t.state p = st_idle
let is_running t p = Bytes.unsafe_get t.state p = st_running
let is_terminated t p = Bytes.unsafe_get t.state p = st_terminated

(* --- load-link records --- *)

let ll_valid t p a =
  let base = p * t.ll_ways in
  let valid = ref false in
  if Array.length t.ll_addr > 0 then
    for i = base to base + t.ll_ways - 1 do
      if
        Array.unsafe_get t.ll_addr i = a
        && Array.unsafe_get t.ll_stamp i = Array.unsafe_get t.ll_epoch a
      then valid := true
    done;
  !valid

let ll_record t p a =
  if Array.length t.ll_addr = 0 then begin
    t.ll_addr <- Array.make (t.n * t.ll_ways) (-1);
    t.ll_stamp <- Array.make (t.n * t.ll_ways) 0
  end;
  let base = p * t.ll_ways in
  let slot = ref (-1) in
  (* Prefer the slot already holding [a]; otherwise any free or stale one. *)
  for i = base + t.ll_ways - 1 downto base do
    let b = Array.unsafe_get t.ll_addr i in
    if b = a then slot := i
    else if
      !slot < 0
      && (b < 0 || Array.unsafe_get t.ll_stamp i <> Array.unsafe_get t.ll_epoch b)
    then slot := i
  done;
  if !slot < 0 then
    failwith
      (Printf.sprintf
         "Flat_sim: process %d holds more than %d concurrent load-links" p
         t.ll_ways)
  else begin
    t.ll_addr.(!slot) <- a;
    t.ll_stamp.(!slot) <- t.ll_epoch.(a)
  end

(* --- CC cache, the epoch scheme --- *)

(* Index of [p]'s valid cache line for [a], or -1. *)
let line_of t p a =
  let base = p * t.ways in
  let found = ref (-1) in
  for i = base to base + t.ways - 1 do
    if
      Array.unsafe_get t.cache_addr i = a
      && Array.unsafe_get t.cache_stamp i = Array.unsafe_get t.cc_epoch a
    then found := i
  done;
  !found

let touch_lru t i = t.cache_lru.(i) <- t.clock

(* Give [p] a valid copy of [a] (the flat [Cc.add_copy]): reuse the line
   already holding [a] if any, else a free or stale line, else evict the
   LRU valid line — decrementing its sharer count and dropping its
   ownership, exactly as [Cc.add_copy] does for a capacity eviction. *)
let add_copy t p a =
  let base = p * t.ways in
  let epoch_a = t.cc_epoch.(a) in
  let same = ref (-1) and free = ref (-1) and lru = ref base in
  for i = base to base + t.ways - 1 do
    let b = Array.unsafe_get t.cache_addr i in
    if b = a then same := i
    else if b < 0 || Array.unsafe_get t.cache_stamp i <> Array.unsafe_get t.cc_epoch b
    then free := i
    else if Array.unsafe_get t.cache_lru i < Array.unsafe_get t.cache_lru !lru
    then lru := i
  done;
  if !same >= 0 then begin
    (* Already present (possibly stale): revalidate and refresh recency. *)
    if t.cache_stamp.(!same) <> epoch_a then begin
      t.cache_stamp.(!same) <- epoch_a;
      t.sharers.(a) <- t.sharers.(a) + 1
    end;
    touch_lru t !same
  end
  else begin
    let i = if !free >= 0 then !free else !lru in
    (if !free < 0 then begin
       (* Evicting a valid line. *)
       let b = t.cache_addr.(i) in
       t.sharers.(b) <- t.sharers.(b) - 1;
       if t.owner.(b) = p then t.owner.(b) <- -1
     end);
    t.cache_addr.(i) <- a;
    t.cache_stamp.(i) <- epoch_a;
    t.sharers.(a) <- t.sharers.(a) + 1;
    touch_lru t i
  end

(* The cache effects of [Cc.decide]'s answers.  Like [cc_account] below,
   each returns the messages the access sent, a plain int, so billing
   allocates nothing: an access is an RMR exactly when that count is
   positive. *)

(* A miss: fetch the line (one transfer, plus a write-back if a dirty
   owner holds it elsewhere) and downgrade the owner. *)
let fetch t p a =
  let ow = t.owner.(a) in
  let messages = Cc.miss_messages ~dirty_elsewhere:(ow >= 0 && ow <> p) in
  t.owner.(a) <- -1;
  add_copy t p a;
  (match t.counters with
  | None -> ()
  | Some c ->
    Obs.Counters.bump c ~pid:p ~addr:a ~pc:(Array.unsafe_get t.run_steps p)
      Obs.Counters.Fetch;
    Obs.Counters.bump_messages c ~pid:p ~addr:a messages);
  t.on_cache ~t:t.clock ~pid:p ~addr:a ~action:"fetch" ~messages;
  messages

(* A write that reaches memory and kills (or, for write-update, leaves
   valid) the remote copies; [held] is whether [p]'s own copy counts
   among the sharers. *)
let write t interconnect ~invalidate ~own ~held p a =
  let m = t.sharers.(a) - if held then 1 else 0 in
  let messages = 1 + Cc.coherence_messages interconnect ~n:t.n ~m in
  if invalidate then begin
    (* One epoch bump invalidates every copy, the writer's own included;
       the writer re-validates through [add_copy] below. *)
    t.cc_epoch.(a) <- t.cc_epoch.(a) + 1;
    t.sharers.(a) <- 0
  end;
  add_copy t p a;
  t.owner.(a) <- (if own then p else -1);
  (match t.counters with
  | None -> ()
  | Some c ->
    Obs.Counters.bump c ~pid:p ~addr:a ~pc:(Array.unsafe_get t.run_steps p)
      (if invalidate then Obs.Counters.Invalidate else Obs.Counters.Update);
    Obs.Counters.bump_messages c ~pid:p ~addr:a messages);
  t.on_cache ~t:t.clock ~pid:p ~addr:a
    ~action:(if invalidate then "invalidate" else "update")
    ~messages;
  messages

let cc_account t protocol interconnect p inv ~wrote =
  let a = Op.addr_of inv in
  let i = line_of t p a in
  let held = i >= 0 in
  let owned = t.owner.(a) = p in
  match Cc.decide protocol inv ~wrote ~has_copy:held ~owned with
  | Cc.Hit ->
    if held then touch_lru t i;
    0
  | Cc.Hit_in_place -> 0
  | Cc.Miss -> fetch t p a
  | Cc.Round_trip ->
    (* One message on the wire, billed before the refill's own traffic —
       the same event order the traced [Cc] model emits. *)
    (match t.counters with
    | None -> ()
    | Some c -> Obs.Counters.bump_messages c ~pid:p ~addr:a 1);
    t.on_cache ~t:t.clock ~pid:p ~addr:a ~action:"roundtrip" ~messages:1;
    if held then touch_lru t i else ignore (fetch t p a : int);
    1
  | Cc.Invalidate -> write t interconnect ~invalidate:true ~own:false ~held p a
  | Cc.Take_ownership ->
    write t interconnect ~invalidate:true ~own:true ~held p a
  | Cc.Update -> write t interconnect ~invalidate:false ~own:false ~held p a

(* --- the one-step core --- *)

(* Messages the step sent; the step is an RMR iff the count is positive. *)
let account t p inv ~wrote =
  match t.spec with
  | Dsm ->
    (* Static DSM billing: remote (one message) iff the cell is homed
       elsewhere ([Shared] is -1, remote to everyone). *)
    let home = Var.layout_home_code t.layout (Op.addr_of inv) in
    if home = p then 0 else 1
  | Cc { protocol; interconnect; _ } ->
    cc_account t protocol interconnect p inv ~wrote

let complete_call t p ~crashed result =
  let finished = if crashed then t.clock - 1 else t.clock in
  let rmrs = t.run_rmrs.(p) and steps = t.run_steps.(p) in
  t.on_complete ~pid:p ~label:t.labels.(p) ~seq:(t.next_seq.(p) - 1)
    ~started:t.started.(p) ~finished ~crashed ~result ~rmrs ~steps;
  if not crashed then begin
    t.clock <- finished + 1;
    Bytes.unsafe_set t.state p st_idle;
    Bytes.unsafe_set t.last_kind p last_completed;
    t.last_val.(p) <- result;
    t.completed_total <- t.completed_total + 1
  end
  else begin
    Bytes.unsafe_set t.last_kind p last_crashed;
    t.crashed_total <- t.crashed_total + 1
  end;
  t.progs.(p) <- no_program;
  t.rmr_cum.(p) <- t.rmr_cum.(p) + rmrs;
  t.steps_cum.(p) <- t.steps_cum.(p) + steps

let begin_call t p ~label program =
  (match Bytes.get t.state p with
  | c when c = st_idle -> ()
  | c when c = st_running ->
    invalid_arg "Flat_sim.begin_call: process already in a call"
  | _ -> invalid_arg "Flat_sim.begin_call: process terminated");
  let started = t.clock in
  t.labels.(p) <- label;
  t.next_seq.(p) <- t.next_seq.(p) + 1;
  t.started.(p) <- started;
  t.run_rmrs.(p) <- 0;
  t.run_steps.(p) <- 0;
  t.clock <- started + 1;
  match program with
  | Program.Return v ->
    (* A zero-step call completes on the spot, one tick after beginning —
       the same two-tick footprint as Sim's begin-then-complete path. *)
    Bytes.unsafe_set t.state p st_running;
    complete_call t p ~crashed:false v
  | Program.Step _ ->
    Bytes.unsafe_set t.state p st_running;
    t.progs.(p) <- program

let advance t p =
  if Bytes.get t.state p <> st_running then
    invalid_arg "Flat_sim.advance: process is not in a call";
  match t.progs.(p) with
  | Program.Return _ -> assert false
  | Program.Step (inv, k) ->
    let a = Op.addr_of inv in
    let current = Array.unsafe_get t.values a in
    let llv = match inv with Op.Sc _ -> ll_valid t p a | _ -> false in
    let { Op.response; new_value } = Op.execute ~current ~ll_valid:llv inv in
    (match new_value with
    | Some v ->
      (* Nontrivial: overwrite and kill every load-link on the cell (the
         writer's own included), as Memory does by emptying the link set. *)
      Array.unsafe_set t.values a v;
      t.ll_epoch.(a) <- t.ll_epoch.(a) + 1
    | None -> ( match inv with Op.Ll _ -> ll_record t p a | _ -> ()));
    let messages = account t p inv ~wrote:(new_value <> None) in
    let rmr = messages > 0 in
    (match t.counters with
    | None -> ()
    | Some c ->
      Obs.Counters.bump c ~pid:p ~addr:a ~pc:(Array.unsafe_get t.run_steps p)
        (if rmr then Obs.Counters.Rmr else Obs.Counters.Local));
    let time = t.clock in
    if rmr then begin
      t.run_rmrs.(p) <- t.run_rmrs.(p) + 1;
      t.total_rmrs <- t.total_rmrs + 1
    end;
    t.run_steps.(p) <- t.run_steps.(p) + 1;
    t.total_messages <- t.total_messages + messages;
    t.total_steps <- t.total_steps + 1;
    t.clock <- time + 1;
    (match k response with
    | Program.Return v -> complete_call t p ~crashed:false v
    | Program.Step _ as program -> t.progs.(p) <- program)

(* Let logical time pass with no process stepping: open-system drivers use
   this when every process is idle but the next arrival or signal is not
   due yet.  Never moves the clock backwards. *)
let skip_to t time = if time > t.clock then t.clock <- time

let terminate t p =
  (match Bytes.get t.state p with
  | c when c = st_idle -> ()
  | c when c = st_running -> invalid_arg "Flat_sim.terminate: process mid-call"
  | _ -> invalid_arg "Flat_sim.terminate: already terminated");
  t.clock <- t.clock + 1;
  Bytes.unsafe_set t.state p st_terminated

let crash t p =
  t.clock <- t.clock + 1;
  (match Bytes.get t.state p with
  | c when c = st_running ->
    (match t.counters with
    | None -> ()
    | Some cs ->
      (* Attribute the crash to the cell the cut-down call was about to
         touch (a running call always has a pending [Step]). *)
      let a =
        match t.progs.(p) with
        | Program.Step (inv, _) -> Op.addr_of inv
        | Program.Return _ -> 0
      in
      if Obs.Counters.size cs > 0 then
        Obs.Counters.bump cs ~pid:p ~addr:a ~pc:t.run_steps.(p)
          Obs.Counters.Crash);
    complete_call t p ~crashed:true 0
  | _ -> ());
  Bytes.unsafe_set t.state p st_terminated

let rec run_to_idle ~fuel t p =
  if Bytes.get t.state p = st_running then
    if fuel = 0 then failwith "Flat_sim.run_call: out of fuel"
    else begin
      advance t p;
      run_to_idle ~fuel:(fuel - 1) t p
    end

let run_call ?(fuel = 1_000_000) t p ~label program =
  begin_call t p ~label program;
  run_to_idle ~fuel t p;
  if Bytes.get t.last_kind p <> last_completed then
    failwith "Flat_sim.run_call: call did not complete"
  else t.last_val.(p)

(* --- accounting views (same shapes as Sim's) --- *)

let rmrs t p =
  t.rmr_cum.(p) + if is_running t p then t.run_rmrs.(p) else 0

let step_count t p =
  t.steps_cum.(p) + if is_running t p then t.run_steps.(p) else 0

let call_count t p = t.next_seq.(p)

(* Every call begun is completed, in flight, or the one a crash cut down. *)
let completed_count t p =
  t.next_seq.(p) - Bool.to_int (is_running t p)
  - Bool.to_int (Bytes.get t.last_kind p = last_crashed)

let last_result t p =
  match Bytes.get t.last_kind p with
  | c when c = last_completed -> Some t.last_val.(p)
  | _ -> None

let total_rmrs t = t.total_rmrs
let total_messages t = t.total_messages
let total_steps t = t.total_steps
let completed_calls t = t.completed_total
let crashed_calls t = t.crashed_total

let value t a =
  if a < 0 || a >= t.size then invalid_arg "Flat_sim.value: bad address"
  else t.values.(a)

(* Resident engine footprint amortized per process, in bytes: every
   per-process array plus the per-address arrays (whose length is itself
   O(1) cells per process for the catalog algorithms), link records once
   allocated.  Word-counting is exact for int arrays and Bytes; the boxed
   program/label slots count one word each (their targets are the
   caller's). *)
let bytes_per_process t =
  let words_of_int_array (a : int array) = Array.length a + 1 in
  let words =
    List.fold_left
      (fun acc a -> acc + words_of_int_array a)
      0
      [ t.values; t.ll_epoch; t.ll_addr; t.ll_stamp; t.cache_addr;
        t.cache_stamp; t.cache_lru; t.cc_epoch; t.sharers; t.owner;
        t.started; t.run_rmrs; t.run_steps; t.next_seq; t.rmr_cum;
        t.steps_cum; t.last_val ]
    + Array.length t.progs + 1
    + Array.length t.labels + 1
    + ((Bytes.length t.state + Bytes.length t.last_kind) / 8)
    + 2
  in
  words * 8 / max 1 t.n

(* --- snapshot / restore ---

   The flat engine only ever moves forward; a snapshot lets a caller
   return to an earlier state (only bench/suite's layer loops take one
   today).  A snapshot is a copy of the machine record, scalar counters
   included, with every dense array deep-copied: O(size + n) space and
   time, taken rarely — the per-step hot path is untouched.  [progs] and
   [labels] hold immutable values, so copying the arrays is enough. *)

type snapshot = t

let snapshot t =
  { t with
    values = Array.copy t.values;
    ll_epoch = Array.copy t.ll_epoch;
    ll_addr = Array.copy t.ll_addr;
    ll_stamp = Array.copy t.ll_stamp;
    cache_addr = Array.copy t.cache_addr;
    cache_stamp = Array.copy t.cache_stamp;
    cache_lru = Array.copy t.cache_lru;
    cc_epoch = Array.copy t.cc_epoch;
    sharers = Array.copy t.sharers;
    owner = Array.copy t.owner;
    state = Bytes.copy t.state;
    progs = Array.copy t.progs;
    labels = Array.copy t.labels;
    started = Array.copy t.started;
    run_rmrs = Array.copy t.run_rmrs;
    run_steps = Array.copy t.run_steps;
    next_seq = Array.copy t.next_seq;
    rmr_cum = Array.copy t.rmr_cum;
    steps_cum = Array.copy t.steps_cum;
    last_kind = Bytes.copy t.last_kind;
    last_val = Array.copy t.last_val }

let restore t s =
  if
    s.n <> t.n || s.size <> t.size || s.ways <> t.ways
    || s.ll_ways <> t.ll_ways
  then invalid_arg "Flat_sim.restore: snapshot from a different machine shape";
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  blit s.values t.values;
  blit s.ll_epoch t.ll_epoch;
  (* Copied, not blitted: either side may predate the first [Ll]. *)
  t.ll_addr <- Array.copy s.ll_addr;
  t.ll_stamp <- Array.copy s.ll_stamp;
  blit s.cache_addr t.cache_addr;
  blit s.cache_stamp t.cache_stamp;
  blit s.cache_lru t.cache_lru;
  blit s.cc_epoch t.cc_epoch;
  blit s.sharers t.sharers;
  blit s.owner t.owner;
  Bytes.blit s.state 0 t.state 0 t.n;
  blit s.progs t.progs;
  blit s.labels t.labels;
  blit s.started t.started;
  blit s.run_rmrs t.run_rmrs;
  blit s.run_steps t.run_steps;
  blit s.next_seq t.next_seq;
  blit s.rmr_cum t.rmr_cum;
  blit s.steps_cum t.steps_cum;
  Bytes.blit s.last_kind 0 t.last_kind 0 t.n;
  blit s.last_val t.last_val;
  t.clock <- s.clock;
  t.total_rmrs <- s.total_rmrs;
  t.total_messages <- s.total_messages;
  t.total_steps <- s.total_steps;
  t.completed_total <- s.completed_total;
  t.crashed_total <- s.crashed_total
