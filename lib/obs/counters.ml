(* Counter planes; see the .mli.

   Storage is marginal, not joint: a (pid × cell × class) cube at the flat
   engine's scale (n and size both up to 10^6) would need 10^12 slots, so
   the plane set keeps
     - by_cell : groups * size * classes   (cell attribution, per group)
     - by_pid  : n * classes               (pid attribution, exact)
     - by_pc   : groups * pc_slots * classes
     - msgs    : groups * size             (coherence messages per cell)
   which together answer every profile query the CLI renders (hot cells,
   per-pid tables, per-pc tables, message attribution) in O(planes) space.

   Hot-path discipline: a bump is index arithmetic plus an unsafe array
   write — no allocation, so the flat engine's minor words per step (and
   the minor_words/step CI gate) are the same with counters enabled. *)

type cls = Rmr | Local | Fetch | Invalidate | Update | Crash

let classes = [ Rmr; Local; Fetch; Invalidate; Update; Crash ]
let num_classes = 6

let cls_index = function
  | Rmr -> 0
  | Local -> 1
  | Fetch -> 2
  | Invalidate -> 3
  | Update -> 4
  | Crash -> 5

let cls_name = function
  | Rmr -> "rmr"
  | Local -> "local"
  | Fetch -> "fetch"
  | Invalidate -> "invalidate"
  | Update -> "update"
  | Crash -> "crash"

type t = {
  n : int;
  size : int;
  groups : int;
  pc_slots : int;
  group : int array; (* pid -> group *)
  by_cell : int array; (* (g * size + a) * classes + c *)
  by_pid : int array; (* p * classes + c *)
  by_pc : int array; (* (g * pc_slots + pc) * classes + c *)
  msgs : int array; (* g * size + a *)
}

let create ?(groups = 2) ?(pc_slots = 16) ~n ~size () =
  if n < 0 || size < 0 then invalid_arg "Counters.create: negative shape";
  if groups < 1 || pc_slots < 1 then
    invalid_arg "Counters.create: groups and pc_slots must be positive";
  { n;
    size;
    groups;
    pc_slots;
    group = Array.make (max 1 n) 0;
    by_cell = Array.make (groups * size * num_classes) 0;
    by_pid = Array.make (n * num_classes) 0;
    by_pc = Array.make (groups * pc_slots * num_classes) 0;
    msgs = Array.make (groups * size) 0 }

let n t = t.n
let size t = t.size
let groups t = t.groups
let pc_slots t = t.pc_slots

let set_group t ~pid ~group =
  if group < 0 || group >= t.groups then
    invalid_arg "Counters.set_group: group out of range";
  t.group.(pid) <- group

let group_of t ~pid = t.group.(pid)

(* --- hot path --- *)

let[@inline] bump t ~pid ~addr ~pc cls =
  let c = cls_index cls in
  let g = Array.unsafe_get t.group pid in
  let pc = if pc >= t.pc_slots then t.pc_slots - 1 else if pc < 0 then 0 else pc in
  let i_cell = (((g * t.size) + addr) * num_classes) + c in
  Array.unsafe_set t.by_cell i_cell (Array.unsafe_get t.by_cell i_cell + 1);
  let i_pid = (pid * num_classes) + c in
  Array.unsafe_set t.by_pid i_pid (Array.unsafe_get t.by_pid i_pid + 1);
  let i_pc = (((g * t.pc_slots) + pc) * num_classes) + c in
  Array.unsafe_set t.by_pc i_pc (Array.unsafe_get t.by_pc i_pc + 1)

let[@inline] bump_messages t ~pid ~addr by =
  let g = Array.unsafe_get t.group pid in
  let i = (g * t.size) + addr in
  Array.unsafe_set t.msgs i (Array.unsafe_get t.msgs i + by)

(* --- readout --- *)

let check_group t g =
  if g < 0 || g >= t.groups then invalid_arg "Counters: group out of range"

let check_addr t a =
  if a < 0 || a >= t.size then invalid_arg "Counters: addr out of range"

let cell_count t ~group ~addr cls =
  check_group t group;
  check_addr t addr;
  t.by_cell.((((group * t.size) + addr) * num_classes) + cls_index cls)

let pid_count t ~pid cls =
  if pid < 0 || pid >= t.n then invalid_arg "Counters: pid out of range";
  t.by_pid.((pid * num_classes) + cls_index cls)

let pc_count t ~group ~pc cls =
  check_group t group;
  if pc < 0 || pc >= t.pc_slots then invalid_arg "Counters: pc out of range";
  t.by_pc.((((group * t.pc_slots) + pc) * num_classes) + cls_index cls)

let messages_at t ~group ~addr =
  check_group t group;
  check_addr t addr;
  t.msgs.((group * t.size) + addr)

let cell_total t ~addr cls =
  let acc = ref 0 in
  for g = 0 to t.groups - 1 do
    acc := !acc + cell_count t ~group:g ~addr cls
  done;
  !acc

let messages_total_at t ~addr =
  let acc = ref 0 in
  for g = 0 to t.groups - 1 do
    acc := !acc + messages_at t ~group:g ~addr
  done;
  !acc

let total t cls =
  let c = cls_index cls in
  let acc = ref 0 in
  for p = 0 to t.n - 1 do
    acc := !acc + t.by_pid.((p * num_classes) + c)
  done;
  !acc

let total_messages t =
  Array.fold_left ( + ) 0 t.msgs

let reset t =
  Array.fill t.by_cell 0 (Array.length t.by_cell) 0;
  Array.fill t.by_pid 0 (Array.length t.by_pid) 0;
  Array.fill t.by_pc 0 (Array.length t.by_pc) 0;
  Array.fill t.msgs 0 (Array.length t.msgs) 0

let fold_into_metrics ?(model = "flat") t m =
  for p = 0 to t.n - 1 do
    let pid_label = Printf.sprintf "p%d" p in
    let rmr = pid_count t ~pid:p Rmr and local = pid_count t ~pid:p Local in
    if rmr > 0 then
      Metrics.incr m ~by:rmr "rmr_total"
        ~labels:[ ("model", model); ("pid", pid_label) ];
    if rmr + local > 0 then
      Metrics.incr m ~by:(rmr + local) "steps_total"
        ~labels:[ ("pid", pid_label) ]
  done;
  List.iter
    (fun cls ->
      match cls with
      | Fetch | Invalidate | Update ->
        let v = total t cls in
        if v > 0 then
          Metrics.incr m ~by:v "cache_events_total"
            ~labels:[ ("action", cls_name cls) ]
      | Rmr | Local | Crash -> ())
    classes;
  let msgs = total_messages t in
  if msgs > 0 then
    Metrics.incr m ~by:msgs "coherence_messages_total" ~labels:[];
  let crashes = total t Crash in
  if crashes > 0 then Metrics.incr m ~by:crashes "crashes_total" ~labels:[]
