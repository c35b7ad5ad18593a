(* Exhaustive interleaving exploration: a small-scope model checker.

   The paper's histories allow arbitrary interleavings; randomized testing
   samples them, this module enumerates them.  Given a per-process script
   of procedure calls, [check] drives the machine through every possible
   step-level interleaving (depth-first over persistent state — a branch
   is just a retained binding) and evaluates a property on every complete
   history.

   The naive step-level DFS explodes combinatorially, so three reductions
   make exhaustive checking scale past toy scopes:

   - State deduplication.  A canonical fingerprint of (memory contents,
     per-process control point) identifies states whose futures coincide;
     a revisited state is pruned.  Soundness needs the fingerprint to
     determine both future behavior and future property verdicts, which is
     why it includes, per running call, the responses received so far (the
     continuation of a deterministic program is a function of them) and a
     snapshot of every process's completed-call count at the call's start
     (Specification-4.1-style verdicts compare a call's start against
     earlier completions).  Begun counts are deliberately not snapshotted:
     began-before-began is not an interval-order relation, so states that
     differ only in the order of concurrent call starts merge.

   - Sleep-set partial-order reduction.  Two enabled moves commute when
     swapping them changes neither future machine behavior nor any
     interval-order relation: two advances whose operations commute
     ([Op.commute]: different cells, or both read-only), two begins
     (scripts read only their own process's state and a begin touches no
     memory), and a begin against a non-completing advance.  A call
     completion is an interval endpoint, so nothing slides past it except
     commuting advances (no call start separates two adjacent non-begin
     moves).  Only one representative order per commuting pair is
     explored.

   - Deterministic frontier parallelism.  The first [split_depth] levels
     are expanded sequentially into independent subtree tasks which fan
     out across domains via [Parallel.map]'s shared atomic task queue;
     each task owns a private visited table and draws its history budget
     as chunked leases from a shared atomic pool, and a reconciliation
     pass in task order then restores the canonical sequential
     accounting, so the merged verdict is byte-identical for every job
     count.

   Four constant-factor decisions keep the per-state cost and the
   resident bytes per state flat (see docs/MODEL.md, "Exploration fast
   path"):

   - The search steps no [Sim.t].  A node is the persistent [Memory.t],
     the caller's [Cost_model.t], the event clock, the per-process
     metadata array and a persistent log of completed calls; a running
     call's start time and RMR/step tallies live in per-task arrays that
     are restored on backtrack.  That is everything the property contract
     (a list of call records) and the script contract (a {!view} of own
     call count and last result) read.  A violation is rebuilt afterwards
     as a full-history [Sim.t] by replaying the recorded move path.

   - A state's hash is maintained incrementally: [Memory.fp_hash] is a
     per-operation delta and the slot hashes a per-move one, so hashing a
     state touches no cell and no response list.

   - What the dedup table stores per state is one packed byte string: the
     observable memory cells and, per process, a few small ints, with
     labels and response lists replaced by task-local ids.  Keys are
     compared byte for byte, and nothing of the live search (programs,
     response lists, snapshot arrays, memories) is retained by a key.

   - Symmetric keys are canonicalized in per-task scratch: the permutation
     is found without allocating, and the canonical hash and the packed
     key are computed through it, so no relabeled array is ever built.

   Dedup and POR assume (and [check]'s documentation requires) that the
   property judges each call, at its completion, from the call's own
   result and its interval-order relations (which calls completed before
   it began, which began before it finished) — true of Specification 4.1
   and the GME occupancy predicate — and that scripts consult only the
   script-visible state (own call count and last result).  Both
   reductions can be switched off, which restores the seed checker's
   exact leaf-per-interleaving semantics. *)

module Pid_set = Sim.Pid_set

type stats = {
  states : int; (* search nodes visited (dedup/POR-pruned nodes included) *)
  dedup_hits : int; (* nodes pruned because an equivalent state was explored *)
  por_prunes : int; (* nodes whose every enabled move was asleep *)
  tasks : int; (* parallel subtree tasks the frontier split produced *)
  max_depth : int; (* deepest step count reached on any branch *)
  orbit_hits : int; (* dedup hits whose canonical key was relabeled *)
  fp_distinct : int; (* distinct dedup keys interned, summed over tasks *)
  fp_collisions : int; (* full-hash collisions among distinct keys *)
  fp_resizes : int; (* intern-table slot doublings, summed over tasks *)
  fp_slots : int; (* intern-table slot capacity, summed over tasks *)
  wall_s : float; (* wall-clock seconds (the only jobs-dependent field) *)
}

type result = {
  histories : int; (* complete histories the property was checked on *)
  truncated : int; (* branches cut at [max_steps_per_history] (spin loops) *)
  complete : bool; (* false if a cap stopped or truncated the enumeration *)
  violation : Sim.t option; (* a history falsifying the property *)
  stats : stats;
}

(* --- moves --- *)

type move =
  | M_advance of Op.invocation (* the process's pending operation *)
  | M_begin of string * Op.value Program.t

(* --- per-process search metadata --- *)

(* Per-running-call metadata the dedup key needs: the responses received
   so far inside the call (they determine the continuation of a
   deterministic program) and the completed-call counts of every scripted
   process at the call's start (they determine how interval-order
   properties will judge the call once it completes).  The call's start
   time and RMR/step tallies, which only the property's call records read,
   are kept in per-task arrays instead, so a move copies none of them.
   Dedup keys do not retain these records: a key packs the label and the
   responses as task-local ids, next to the seq and the snapshot. *)
type call_meta = {
  program : Op.value Program.t;
      (* the call's remaining program — it yields the pending invocation
         and the continuation *)
  label : string;
  label_h : int; (* [Hashtbl.hash label], computed once at the begin *)
  seq : int; (* the call's per-process ordinal *)
  resps_rev : Op.value list;
  resps_len : int; (* [List.length resps_rev], maintained incrementally *)
  resps_h : int; (* rolling hash of [resps_rev], maintained incrementally *)
  snap : int array;
      (* per-process completed-call counts (indexed by pid) at this call's
         start: they decide which completions precede the call in the
         interval order.  Begun counts are deliberately absent —
         began-before-began is not an interval-order relation, and
         omitting them lets states that differ only in the order of
         concurrent call starts merge.  Never mutated after creation. *)
}

(* One entry per process, indexed by pid (pids are dense, [0..n-1]).  The
   explorer never terminates or crashes a process (a script that answers
   [None] just stops producing moves), so idle-with-history and running
   are the only control points — and every fact the dedup key, the move
   enumeration and the scripts need is maintained here incrementally.  The
   array is copy-on-write: a move copies, nothing ever mutates an existing
   array, so a child shares every slot it did not move with its parent.
   An array lives as long as a search node holds it; the dedup table keeps
   only its packed encoding.  Unscripted processes stay [P_idle (0, None)]
   forever; their contribution to every key is the same constant, so
   including them changes no state equivalence. *)
type pmeta =
  | P_idle of int * Op.value option (* calls begun, last result *)
  | P_running of call_meta

let meta0 n = Array.make n (P_idle (0, None))

(* --- the script contract --- *)

type view = pmeta array

let call_count (v : view) p =
  match v.(p) with P_idle (b, _) -> b | P_running m -> m.seq + 1

let last_result (v : view) p =
  match v.(p) with P_idle (_, r) -> r | P_running _ -> None

(* What a process does between calls: a PURE function of the view (branches
   share nothing, so stateful closures would corrupt the search).  [None]
   means the process is done. *)
type script = view -> Op.pid -> (string * Op.value Program.t) option

let of_list calls : script = fun v p -> List.nth_opt calls (call_count v p)

(* Repeat a call until its result satisfies [until], at most [limit]
   times — e.g. "Poll() until it returns true", the history restriction of
   Section 4. *)
let repeat ?(limit = max_int) ~until call : script =
  let next = Some call in
  fun v p ->
    match last_result v p with
    | Some r when until r -> None
    | Some _ | None -> if call_count v p >= limit then None else next

(* Enabled moves in script order: advance if mid-call, else begin whatever
   the script asks for next.  A process whose script answers [None] is
   done. *)
let moves scripts (meta : pmeta array) =
  List.filter_map
    (fun ((p : Op.pid), (script : script)) ->
      match meta.(p) with
      | P_running { program = Program.Step (inv, _); _ } -> Some (p, M_advance inv)
      | P_running { program = Program.Return _; _ } ->
        assert false (* running implies a pending operation *)
      | P_idle _ -> (
        match script meta p with
        | None -> None
        | Some (label, program) -> Some (p, M_begin (label, program))))
    scripts

(* --- state hashing --- *)

(* A state's exact identity is its memory's observable cells plus the
   per-process control points (the metadata array).  The dedup table
   stores it packed (see "packed dedup keys" below); what is maintained
   incrementally here is its hash.  [program] takes no part in either:
   for a deterministic program it is a function of the call's label and
   responses. *)

(* Rolling-hash mixer for the incremental response hash and the state hash
   below. *)
let mix h x = (((h * 31) + x + 1) * 0x2545F491) land max_int

(* MurmurHash3's 64-bit finalizer with its constants cut to OCaml's 63-bit
   ints; mirrors [Memory]'s.  Applied to each slot hash before the slots
   are summed, because [mix] is affine: a sum of raw slot hashes is
   unchanged when two pids swap their control states. *)
let fmix h =
  let h = (h lxor (h lsr 33)) * 0x7f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x44ceb9fe1a85ec53 in
  h lxor (h lsr 33)

(* The generic [Hashtbl.hash] is unusable here: its traversal is capped at
   256 nodes, and deep in a spin loop every state shares the same 256-node
   prefix, so all keys collide and probes degrade to long structural
   comparisons.  Instead the scalar summaries are folded explicitly, each
   of them already maintained incrementally: [Memory.fp_hash] is a per-
   operation delta, [resps_h] a per-response delta — so hashing a state is
   O(processes), touching no cell and no response list.  The packed key
   still decides matches exactly, so collisions cost time, never
   soundness. *)
let rec hash_snap (s : int array) i h =
  if i >= Array.length s then h else hash_snap s (i + 1) (mix h s.(i))

let idle_hash i c r =
  fmix
    (mix
       (mix (mix ((i + 1) * 0x9E3779B9) 5) c)
       (match r with None -> min_int | Some v -> v))

(* A running slot's hash before its snapshot is folded in. *)
let running_head_hash i m =
  mix
    (mix (mix (mix (mix ((i + 1) * 0x9E3779B9) 7) m.label_h) m.seq) m.resps_len)
    m.resps_h

(* Hash of one process's control point, salted by its pid and finalized
   by [fmix].  The state hash is the plain integer sum of the slot hashes
   (plus [Memory.fp_hash]): addition commutes, so the sum can be maintained
   incrementally — each move changes exactly one slot, and a move swaps
   that slot's contribution out and in — making the per-node hashing cost
   O(1) slots instead of a walk over all of them.  The packed key decides
   matches exactly, so collisions cost time, never soundness. *)
let slot_hash (i : int) = function
  | P_idle (c, r) -> idle_hash i c r
  | P_running m -> fmix (hash_snap m.snap 0 (running_head_hash i m))

(* Full slot-hash sum of a metadata array — the non-incremental form of
   the state hash, used at the root. *)
let mh_full (meta : pmeta array) =
  let h = ref 0 in
  for i = 0 to Array.length meta - 1 do
    h := !h + slot_hash i meta.(i)
  done;
  !h

(* Initial state hash, matching [meta0]. *)
let mh0 n = mh_full (meta0 n)

let mh_swap mh (meta : pmeta array) p pm =
  mh - slot_hash p meta.(p) + slot_hash p pm

(* --- symmetry reduction: orbit-canonical dedup keys --- *)

(* Interchangeable processes — the signaling problem's waiters — make the
   search factorially redundant: a state and its image under a waiter-pid
   permutation have isomorphic futures, yet fingerprint as distinct.  The
   reduction maps each state's {e dedup key} (never the live search state)
   to a canonical orbit representative: sort the interchangeable slots of
   the metadata array by a permutation-invariant total order, relabel every
   slot's start snapshot by the resulting permutation, and take the
   slot-hash sum of the relabeled array.  Pruning a state because its
   orbit was visited is sound whenever (a) the symmetric pids run literally
   interchangeable scripts — same labels, same invocation/response trees —
   so futures correspond under the permutation, (b) no symmetric pid
   executes [Ll] — pids then never enter the memory fingerprint, which is
   therefore permutation-invariant (addresses never permute; values and
   links carry no symmetric pid) — and (c) the property is invariant under
   the permutation, as Specification 4.1 is (it reads labels, results and
   interval relations, never pids).  {!detect_symmetry} checks (a) and (b)
   from the scripts; (c) is the caller's contract.

   The sort key must itself be permutation-invariant, or twin states would
   sort into different canonical forms.  Per symmetric slot it reads: the
   control tag; for idle slots the begun count and last result; for running
   slots the label, ordinal, responses, and a permuted {e view} of the
   start snapshot — the pinned entries in pid order, then the slot's own
   entry, then the multiset (sorted) of the other symmetric entries.
   Relabeling permutes exactly the positions the view abstracts over, so
   twins produce the same sorted key sequence.  Keys can tie while the
   slots' cross-correlations differ; the canonical form is then
   heapsort-order dependent — some orbit twins fail to merge, which loses
   reduction, never soundness: the canonical array is always the image of
   the real state under an actual permutation, so every pruned state has a
   genuinely explored orbit representative.

   None of this builds a relabeled array.  The permutation is found in
   per-task {!scratch}; the canonical hash and the packed key read the raw
   array through the inverse permutation, so the key the table compares
   and stores is already canonical.

   Sleep sets cross the same boundary: the antichain entries recorded for
   an orbit id live in {e canonical} pid coordinates, so the probing
   state's sleep set is mapped through the same permutation before the
   subset test — comparing raw sleep pids against a twin's entries would
   prune interleavings no representative explored. *)

(* The task-local ids a packed key writes in place of a running call's
   label and response list, dense and in first-packed order.  Equal labels
   (equal responses) get equal ids and distinct ones distinct ids, so
   comparing ids decides what comparing the strings (the lists) would,
   and a key's size does not grow with how long a call has spun.  A list
   is identified one response at a time, never by walking it: [[]] is
   trie node 0, and [r :: tl] is 1 + the node interned for the pair
   (node of [tl], [r]).  The search extends a call's list one response
   per step and shares it with every state until the next one, so a memo
   of the lists last seen (compared physically) almost always holds the
   list or its tail: one array read, or one pair probe. *)
type ids = {
  labels : string Fp_intern.t;
  nodes : (int * Op.value) Fp_intern.t; (* (tail node, head) *)
  mutable list_ids : int array; (* trie node -> list id; -1 = none yet *)
  mutable lists : int; (* list ids handed out *)
  mutable memo_lists : Op.value list array;
      (* at [len * n + p]: the list of length [len] last seen in slot [p]
         of an [n]-slot state *)
  mutable memo_nodes : int array; (* its trie node *)
  mutable r_tail : int; (* the (tail node, head) pair being probed *)
  mutable r_head : Op.value;
}

let pair_equal ((t1 : int), h1) (t2, h2) = t1 = t2 && Op.value_equal h1 h2

let ids () =
  { labels = Fp_intern.create ~size:16 ~equal:String.equal ();
    nodes = Fp_intern.create ~equal:pair_equal ();
    list_ids = [||];
    lists = 0;
    memo_lists = [||];
    memo_nodes = [||];
    r_tail = 0;
    r_head = 0 }

let probe_pair (t, h) ids =
  (t : int) = ids.r_tail && Op.value_equal h ids.r_head

let pair_of ids = (ids.r_tail, ids.r_head)

let memoize ids i l node =
  if i >= Array.length ids.memo_lists then begin
    let cap = max 64 (2 * i) in
    let lists = Array.make cap [] and nodes = Array.make cap 0 in
    Array.blit ids.memo_lists 0 lists 0 (Array.length ids.memo_lists);
    Array.blit ids.memo_nodes 0 nodes 0 (Array.length ids.memo_nodes);
    ids.memo_lists <- lists;
    ids.memo_nodes <- nodes
  end;
  ids.memo_lists.(i) <- l;
  ids.memo_nodes.(i) <- node

(* The trie node of [l], of length [len], in slot [p] of an [n]-slot
   state. *)
let rec resps_node ids n p l len =
  match l with
  | [] -> 0
  | r :: tl ->
    let i = (len * n) + p in
    if i < Array.length ids.memo_lists && ids.memo_lists.(i) == l then
      ids.memo_nodes.(i)
    else begin
      let tail = resps_node ids n p tl (len - 1) in
      ids.r_tail <- tail;
      ids.r_head <- r;
      let node =
        1
        + Fp_intern.intern_with ids.nodes
            ~hash:(fmix (mix tail r))
            ~equal:probe_pair ~make:pair_of ids
      in
      memoize ids i l node;
      node
    end

let list_id ids node =
  if node >= Array.length ids.list_ids then begin
    let a = Array.make (max 64 (2 * node)) (-1) in
    Array.blit ids.list_ids 0 a 0 (Array.length ids.list_ids);
    ids.list_ids <- a
  end;
  let id = ids.list_ids.(node) in
  if id >= 0 then id
  else begin
    ids.list_ids.(node) <- ids.lists;
    ids.lists <- ids.lists + 1;
    ids.lists - 1
  end

(* Per-task canonicalization scratch; also holds the packed key of the
   state being probed, which {!Fp_intern} matches stored keys against.
   Nothing here is shared between tasks. *)
type scratch = {
  sym_arr : int array; (* the interchangeable pids, ascending *)
  is_sym : bool array; (* indexed by pid: membership in [sym_arr] *)
  order : int array; (* [sym_arr] sorted by the slot comparator *)
  perm : int array; (* old pid -> canonical pid *)
  inv : int array; (* canonical pid -> old pid *)
  oth_a : int array; (* the two snapshots' other symmetric entries *)
  oth_b : int array;
  mutable s_meta : pmeta array; (* the array being canonicalized/probed *)
  mutable relabeled : bool; (* [perm] is not the identity *)
  ids : ids;
  mutable buf : Bytes.t; (* the packed key of [s_meta], canonical *)
  mutable len : int; (* bytes of [buf] the key uses *)
}

(* Scratch for [n]-process arrays.  With fewer than two interchangeable
   pids there is nothing to canonicalize, and it only packs keys. *)
let scratch ~n ~ids symmetry =
  let arr =
    Array.of_list
      (Pid_set.elements (Pid_set.filter (fun p -> p >= 0 && p < n) symmetry))
  in
  let k = Array.length arr in
  let is_sym = Array.make n false in
  Array.iter (fun p -> is_sym.(p) <- true) arr;
  { sym_arr = arr;
    is_sym;
    order = Array.make k 0;
    perm = Array.init n Fun.id;
    inv = Array.init n Fun.id;
    oth_a = Array.make (max 0 (k - 1)) 0;
    oth_b = Array.make (max 0 (k - 1)) 0;
    s_meta = [||];
    relabeled = false;
    ids;
    buf = Bytes.empty;
    len = 0 }

(* [Stdlib.Array.sort]'s ternary heap sort, specialized to int arrays and
   an explicit comparator context, with its [Bottom] exception replaced by
   a [-1] son.  It makes the same comparisons in the same order, so it
   returns what [Array.sort] returns — which matters here: with tied sort
   keys the canonical form depends on the exact algorithm. *)
let maxson cmp c (a : int array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp c a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if cmp c a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp c a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle cmp c (a : int array) l i e =
  let j = maxson cmp c a l i in
  if j >= 0 && cmp c a.(j) e > 0 then begin
    a.(i) <- a.(j);
    trickle cmp c a l j e
  end
  else a.(i) <- e

let rec bubble cmp c (a : int array) l i =
  let j = maxson cmp c a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble cmp c a l j
  end

let rec trickleup cmp c (a : int array) i e =
  let father = (i - 1) / 3 in
  if cmp c a.(father) e < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup cmp c a father e else a.(0) <- e
  end
  else a.(i) <- e

let heap_sort cmp c (a : int array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle cmp c a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup cmp c a (bubble cmp c a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let cmp_value_opt a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> Int.compare x y

let rec cmp_ints l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (x : int) :: t1, y :: t2 ->
    let c = Int.compare x y in
    if c <> 0 then c else cmp_ints t1 t2

let rec cmp_pinned (is_sym : bool array) (s1 : int array) (s2 : int array) i =
  if i >= Array.length s1 then 0
  else if is_sym.(i) then cmp_pinned is_sym s1 s2 (i + 1)
  else
    let c = Int.compare s1.(i) s2.(i) in
    if c <> 0 then c else cmp_pinned is_sym s1 s2 (i + 1)

(* [dst] := the entries of [s] at the symmetric pids other than [self],
   sorted ascending (insertion sort: [dst] holds one entry per other
   waiter). *)
let others_sorted (sym_arr : int array) (s : int array) self (dst : int array) =
  let len = ref 0 in
  for r = 0 to Array.length sym_arr - 1 do
    let q = sym_arr.(r) in
    if q <> self then begin
      let v = s.(q) in
      let j = ref !len in
      while !j > 0 && dst.(!j - 1) > v do
        dst.(!j) <- dst.(!j - 1);
        decr j
      done;
      dst.(!j) <- v;
      incr len
    end
  done

let rec cmp_sorted (a : int array) (b : int array) i =
  if i >= Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else cmp_sorted a b (i + 1)

(* Permutation-invariant comparison of two symmetric slots' start
   snapshots: pinned entries in pid order, own entry, sorted multiset of
   the other symmetric entries (both multisets have one entry per other
   waiter, so comparing them sorted is comparing them as multisets). *)
let cmp_snap_view sc (a : int) (b : int) (s1 : int array) (s2 : int array) =
  let c = cmp_pinned sc.is_sym s1 s2 0 in
  if c <> 0 then c
  else
    let c = Int.compare s1.(a) s2.(b) in
    if c <> 0 then c
    else begin
      others_sorted sc.sym_arr s1 a sc.oth_a;
      others_sorted sc.sym_arr s2 b sc.oth_b;
      cmp_sorted sc.oth_a sc.oth_b 0
    end

let cmp_slot sc (a : int) (b : int) =
  match (sc.s_meta.(a), sc.s_meta.(b)) with
  | P_idle (c1, r1), P_idle (c2, r2) ->
    let c = Int.compare c1 c2 in
    if c <> 0 then c else cmp_value_opt r1 r2
  | P_idle _, P_running _ -> -1
  | P_running _, P_idle _ -> 1
  | P_running m1, P_running m2 ->
    let c = String.compare m1.label m2.label in
    if c <> 0 then c
    else
      let c = Int.compare m1.seq m2.seq in
      if c <> 0 then c
      else
        let c = Int.compare m1.resps_len m2.resps_len in
        if c <> 0 then c
        else
          let c = cmp_ints m1.resps_rev m2.resps_rev in
          if c <> 0 then c else cmp_snap_view sc a b m1.snap m2.snap

let rec sym_sorted sc r =
  r + 1 >= Array.length sc.sym_arr
  || (cmp_slot sc sc.sym_arr.(r) sc.sym_arr.(r + 1) <= 0 && sym_sorted sc (r + 1))

(* Find the permutation taking [meta] to its canonical orbit
   representative: [sc.relabeled] is false when the symmetric slots are
   already sorted (the common case), else [sc.perm]/[sc.inv] hold the
   permutation.  Allocates nothing. *)
let canonicalize sc (meta : pmeta array) =
  sc.s_meta <- meta;
  if sym_sorted sc 0 then sc.relabeled <- false
  else begin
    let arr = sc.sym_arr and order = sc.order in
    let perm = sc.perm and inv = sc.inv in
    Array.blit arr 0 order 0 (Array.length arr);
    heap_sort cmp_slot sc order;
    for p = 0 to Array.length perm - 1 do
      perm.(p) <- p
    done;
    for r = 0 to Array.length order - 1 do
      perm.(order.(r)) <- arr.(r)
    done;
    for p = 0 to Array.length perm - 1 do
      inv.(perm.(p)) <- p
    done;
    sc.relabeled <- true
  end

(* The same facts about the relabeled array, read through [inv] (canonical
   pid -> old pid) without building it: entry [i] of a relabeled snapshot
   is entry [inv.(i)] of the raw one. *)
let rec hash_snap_via (inv : int array) (s : int array) i h =
  if i >= Array.length s then h
  else hash_snap_via inv s (i + 1) (mix h s.(inv.(i)))

(* [mh_full] of [sc.s_meta] relabeled by [sc.perm]. *)
let mh_relabeled sc =
  let meta = sc.s_meta and perm = sc.perm and inv = sc.inv in
  let h = ref 0 in
  for p = 0 to Array.length meta - 1 do
    let i = perm.(p) in
    h :=
      !h
      +
      match meta.(p) with
      | P_idle (c, r) -> idle_hash i c r
      | P_running m -> fmix (hash_snap_via inv m.snap 0 (running_head_hash i m))
  done;
  !h

(* --- packed dedup keys --- *)

(* The key the dedup table stores for the scratch's state, written into
   [sc.buf]: per canonical slot [i] (raw slot [inv.(i)] when relabeled)
   - idle: tag 0 and the begun count, or tag 1, the begun count and the
     last result;
   - running: tag 2, the label id, the seq, the response-list id and the
     start snapshot, its entry [j] read at [inv.(j)] when relabeled;
   then, to the end of the key, each observable memory cell in address
   order: address, value, link count and the linking pids.  Every int is
   zigzag-LEB128 coded, so each field and slot delimits itself and the
   memory needs no count: two keys are equal as bytes iff their states
   are equal as (canonical metadata, [Memory.fingerprint]).  Helpers are
   top-level functions, so encoding a key allocates only the memory
   walk's closure, a pid list per linked cell and, rarely, a bigger
   [buf]. *)

let grow_buf sc =
  let b = Bytes.create (max 64 (2 * Bytes.length sc.buf)) in
  Bytes.blit sc.buf 0 b 0 sc.len;
  sc.buf <- b

let put_byte sc b =
  let len = sc.len in
  if len >= Bytes.length sc.buf then grow_buf sc;
  Bytes.unsafe_set sc.buf len (Char.unsafe_chr b);
  sc.len <- len + 1

(* LEB128 of [x] read as an unsigned 63-bit int: 7 bits a byte, the low
   group first, the high bit set on every byte but the last. *)
let rec put_uleb sc x =
  if x lsr 7 = 0 then put_byte sc x
  else begin
    put_byte sc ((x land 0x7f) lor 0x80);
    put_uleb sc (x lsr 7)
  end

(* Zigzag first (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so small negative
   ints are short too. *)
let put_int sc x = put_uleb sc ((x lsl 1) lxor (x asr 62))

let rec put_snap sc (s : int array) j =
  if j < Array.length s then begin
    put_int sc (if sc.relabeled then s.(sc.inv.(j)) else s.(j));
    put_snap sc s (j + 1)
  end

let put_slot sc p = function
  | P_idle (c, None) ->
    put_byte sc 0;
    put_int sc c
  | P_idle (c, Some v) ->
    put_byte sc 1;
    put_int sc c;
    put_int sc v
  | P_running m ->
    put_byte sc 2;
    put_int sc (Fp_intern.intern sc.ids.labels ~hash:m.label_h m.label);
    put_int sc m.seq;
    let n = Array.length sc.s_meta in
    put_int sc (list_id sc.ids (resps_node sc.ids n p m.resps_rev m.resps_len));
    put_snap sc m.snap 0

let rec put_links sc = function
  | [] -> ()
  | p :: rest ->
    put_int sc p;
    put_links sc rest

let put_cell a v links sc =
  put_int sc a;
  put_int sc v;
  put_int sc (List.length links);
  put_links sc links;
  sc

(* Pack [sc.s_meta] (through [sc.inv] when relabeled) and [mem]. *)
let encode sc mem =
  sc.len <- 0;
  let meta = sc.s_meta in
  for i = 0 to Array.length meta - 1 do
    let p = if sc.relabeled then sc.inv.(i) else i in
    put_slot sc p meta.(p)
  done;
  ignore (Memory.fold_observable put_cell mem sc)

external string_get64 : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* [s] and the first [len] bytes of [b] agree from [i] on; [s] has
   length [len].  Eight bytes a compare while they last. *)
let rec same_bytes (s : string) (b : bytes) i len =
  if i + 8 <= len then
    (string_get64 s i : int64) = bytes_get64 b i && same_bytes s b (i + 8) len
  else
    i >= len
    || (String.unsafe_get s i = Bytes.unsafe_get b i
       && same_bytes s b (i + 1) len)

(* The probe side of {!Fp_intern.intern_with}: a stored key equals the
   scratch's, and on a miss the scratch's key is copied out. *)
let key_equal (key : string) sc =
  String.length key = sc.len && same_bytes key sc.buf 0 sc.len

let key_of sc = Bytes.sub_string sc.buf 0 sc.len

(* Script-level symmetry detection: of the candidate (pid, first-call)
   pairs, the group of pids whose calls are literally interchangeable with
   the first candidate's — same label and bisimilar programs over the
   given response domain (invocations compared structurally at every node,
   continuations followed for every value in [values]) — with [Ll]
   refused anywhere in the tree (a load-link records its pid in the
   memory fingerprint, breaking permutation invariance).  A continuation
   that raises on a value (the domain is a superset of what the program
   can really receive — e.g. an index decoded from the pid-option NIL code)
   is a stuck leaf, as in {!Analysis.Cfg.extract}: two stuck leaves match,
   a stuck leaf against a live one does not.  [fuel] bounds the total
   nodes visited per comparison; exhausting it declines that candidate
   (sound: detection failure only loses reduction).  The check is exact
   for programs whose response branching is covered by [values] —
   {!Analysis.Lint.value_domain} covers every catalog algorithm — and the
   caller remains responsible for the property's symmetry.  Pids outside
   the returned set (signalers, asymmetric waiters) stay pinned. *)
let detect_symmetry ?(fuel = 4096) ~values candidates =
  match candidates with
  | [] | [ _ ] -> Pid_set.empty
  | (p0, (label0, prog0)) :: rest ->
    let nodes = ref fuel in
    let cont k v = match k v with p -> Some p | exception _ -> None in
    let rec bisim p q =
      decr nodes;
      !nodes >= 0
      &&
      match (p, q) with
      | Program.Return a, Program.Return b -> Op.value_equal a b
      | Program.Step (i1, k1), Program.Step (i2, k2) ->
        Op.invocation_equal i1 i2
        && (match i1 with Op.Ll _ -> false | _ -> true)
        && List.for_all
             (fun v ->
               match (cont k1 v, cont k2 v) with
               | None, None -> true
               | Some p', Some q' -> bisim p' q'
               | None, Some _ | Some _, None -> false)
             values
      | Program.Return _, Program.Step _ | Program.Step _, Program.Return _
        ->
        false
    in
    let self_ok =
      nodes := fuel;
      bisim prog0 prog0
    in
    if not self_ok then Pid_set.empty
    else
      let same =
        List.filter
          (fun (_, (label, prog)) ->
            String.equal label label0
            &&
            (nodes := fuel;
             bisim prog0 prog))
          rest
      in
      if same = [] then Pid_set.empty
      else Pid_set.of_list (p0 :: List.map fst same)

(* --- search nodes and stepping --- *)

(* A search node: everything a move reads or a dedup key encodes.  All of
   it is persistent — branching is just retaining a binding.  [counts] is
   the completed-call count per pid, under the invariant that
   [counts.(q)] is the number of calls [q] has completed (no crashes
   happen under the explorer, so an idle process has completed everything
   it began and a running one everything but the call in flight).  Like
   [meta] it is copy-on-write ([bump] copies, nothing mutates a shared
   array), which is what lets a begin adopt the current array as its
   [snap] without copying: most snapshots are then physically shared, and
   no per-begin allocation runs. *)
type node = {
  mem : Memory.t;
  model : Cost_model.t; (* the caller's model, stepped per operation *)
  clock : int; (* the event clock, ticking exactly as [Sim]'s does *)
  meta : pmeta array;
  counts : int array;
  mh : int; (* incrementally-maintained slot-hash sum of [meta] *)
  log : History.call list; (* completed calls, most recent first *)
}

let root ~model ~layout ~n =
  { mem = Memory.create layout;
    model;
    clock = 0;
    meta = meta0 n;
    counts = Array.make n 0;
    mh = mh0 n;
    log = [] }

(* Start time and RMR/step tallies of each process's call in flight.  Only
   the property's call records read them, so they stay out of the nodes
   (and out of the dedup keys): one mutable copy per task, written by a
   move and restored when the search backtracks over it. *)
type tally = { started : int array; rmrs : int array; steps : int array }

let tally0 n =
  { started = Array.make n 0; rmrs = Array.make n 0; steps = Array.make n 0 }

let copy_tally t =
  { started = Array.copy t.started;
    rmrs = Array.copy t.rmrs;
    steps = Array.copy t.steps }

let set (meta : pmeta array) p pm =
  let meta' = Array.copy meta in
  meta'.(p) <- pm;
  meta'

let bump (counts : int array) p =
  let c = Array.copy counts in
  c.(p) <- c.(p) + 1;
  c

(* The calls the property judges, in unspecified order: the completed log
   plus one record per call in flight — what [Sim.calls] returns for the
   same history. *)
let calls tl node =
  let meta = node.meta in
  let rec pending p acc =
    if p < 0 then acc
    else
      match meta.(p) with
      | P_idle _ -> pending (p - 1) acc
      | P_running m ->
        pending (p - 1)
          ({ History.c_pid = p;
             c_label = m.label;
             c_seq = m.seq;
             c_started = tl.started.(p);
             c_finished = None;
             c_result = None;
             c_rmrs = tl.rmrs.(p);
             c_steps = tl.steps.(p) }
          :: acc)
  in
  pending (Array.length meta - 1) node.log

(* The child in which [p] runs [pm], one tick later. *)
let running_child node ~mem ~model p pm =
  { node with
    mem;
    model;
    clock = node.clock + 1;
    meta = set node.meta p pm;
    mh = mh_swap node.mh node.meta p pm }

(* The child in which [p]'s call [label]#[seq] has returned [v]: one tick
   for its begin or last step, one for the completion, as in [Sim]. *)
let completed_child node ~mem ~model p ~label ~seq ~started ~rmrs ~steps v =
  let pm = P_idle (seq + 1, Some v) in
  let call =
    { History.c_pid = p;
      c_label = label;
      c_seq = seq;
      c_started = started;
      c_finished = Some (node.clock + 1);
      c_result = Some v;
      c_rmrs = rmrs;
      c_steps = steps }
  in
  { mem;
    model;
    clock = node.clock + 2;
    meta = set node.meta p pm;
    counts = bump node.counts p;
    mh = mh_swap node.mh node.meta p pm;
    log = call :: node.log }

(* Execute [p]'s move [mv]: the child node.  [p]'s tallies are set for the
   child; the caller restores them when it backtracks over the move (see
   [restoring]). *)
let step tl node p mv =
  match mv with
  | M_begin (label, program) -> (
    let seq =
      match node.meta.(p) with
      | P_idle (b, _) -> b
      | P_running _ -> assert false
    in
    match program with
    | Program.Return v ->
      (* zero-step call: completed on the spot *)
      completed_child node ~mem:node.mem ~model:node.model p ~label ~seq
        ~started:node.clock ~rmrs:0 ~steps:0 v
    | Program.Step _ ->
      tl.started.(p) <- node.clock;
      tl.rmrs.(p) <- 0;
      tl.steps.(p) <- 0;
      running_child node ~mem:node.mem ~model:node.model p
        (P_running
           { program;
             label;
             label_h = Hashtbl.hash label;
             seq;
             resps_rev = [];
             resps_len = 0;
             resps_h = 0;
             snap = node.counts }))
  | M_advance _ -> (
    let m =
      match node.meta.(p) with
      | P_running m -> m
      | P_idle _ -> assert false
    in
    let inv, k =
      match m.program with
      | Program.Step (inv, k) -> (inv, k)
      | Program.Return _ -> assert false
    in
    let { Memory.memory = mem; response; wrote; read_from = _ } =
      Memory.apply node.mem ~pid:p inv
    in
    let model, { Cost_model.rmr; messages = _ } =
      Cost_model.account node.model p inv ~wrote
    in
    let rmrs = tl.rmrs.(p) + if rmr then 1 else 0 and steps = tl.steps.(p) + 1 in
    match k response with
    | Program.Return v ->
      completed_child node ~mem ~model p ~label:m.label ~seq:m.seq
        ~started:tl.started.(p) ~rmrs ~steps v
    | Program.Step _ as program ->
      tl.rmrs.(p) <- rmrs;
      tl.steps.(p) <- steps;
      running_child node ~mem ~model p
        (P_running
           { m with
             program;
             resps_rev = response :: m.resps_rev;
             resps_len = m.resps_len + 1;
             resps_h = mix m.resps_h response }))

(* Whether the move of [p] into [child] completed a call (the only
   transitions on which the property verdict can change): [p] was running
   before an advance and idle before a begin, so it is idle now iff a call
   ended. *)
let completed_by child p =
  match child.meta.(p) with P_idle _ -> true | P_running _ -> false

(* [Some path]: a violation, with the moves from where the raising search
   started; [None]: the history cap was hit. *)
exception Stopped of (Op.pid * move) list option

(* Search [p]'s move [mv] from [node] with [f child ~completed], then put
   [p]'s tallies back.  A violation raised below gets the move prepended
   to its path on the way out, so the top of the search receives the path
   from where it started. *)
let restoring tl node ((p, mv) as pm) f =
  let s0 = tl.started.(p) and r0 = tl.rmrs.(p) and n0 = tl.steps.(p) in
  let child = step tl node p mv in
  (try f child ~completed:(completed_by child p)
   with Stopped (Some path) -> raise (Stopped (Some (pm :: path))));
  tl.started.(p) <- s0;
  tl.rmrs.(p) <- r0;
  tl.steps.(p) <- n0

(* The violating history as a full-history machine: the recorded move
   path replayed from scratch on [Sim] under the caller's model.  Moves
   are deterministic, so this is exactly the state the search judged. *)
let replay ~model ~layout ~n path =
  List.fold_left
    (fun sim (p, mv) ->
      match mv with
      | M_begin (label, program) -> Sim.begin_call sim p ~label program
      | M_advance _ -> Sim.advance sim p)
    (Sim.create ~model ~layout ~n) path

(* --- sleep sets --- *)

(* Sleep set for the child reached by executing [p]'s move [mv]: of the
   processes asleep here or already explored as older siblings, keep those
   whose pending move commutes with the executed one.

   Two advances commute when their operations do ({!Op.commute}).  Two
   begins commute as long as neither completes a zero-step call on the
   spot: scripts consult only their own process's state, a begin touches
   no memory, and swapping two call starts changes no interval-order
   relation (began-before-began is not one) — whereas a completion is an
   interval endpoint, so nothing commutes across a move that completed a
   call ([completed], known only after applying the move).  By the same
   reasoning a begin also commutes with a non-completing advance: the
   advance's memory effect is invisible to the begin (no memory access,
   script reads own state only) and no endpoint separates them. *)
let instant (program : Op.value Program.t) = Program.next_invocation program = None

(* Monomorphic [List.assoc_opt] over the enabled-move list: pid keys are
   ints, so the polymorphic-compare dispatch is pure overhead here. *)
let rec move_of (q : int) = function
  | [] -> None
  | (p, mv) :: rest -> if (p : int) = q then Some mv else move_of q rest

let child_sleep ~por ~commute ~completed ms sleep explored mv =
  if not por then Pid_set.empty
  else
    match mv with
    | M_begin _ when completed -> Pid_set.empty (* a zero-step call: endpoint *)
    | M_begin _ ->
      Pid_set.filter
        (fun q ->
          match move_of q ms with
          | Some (M_begin (_, prog_q)) -> not (instant prog_q)
          | Some (M_advance _) | None -> false)
        (Pid_set.union sleep explored)
    | M_advance inv_p ->
      (* A completing advance is a finish endpoint: begins must be
         reordered against it (begun-before-finished is observable), but
         commuting advances still slide past — two adjacent non-begin
         moves flank no call start, so no interval relation changes. *)
      Pid_set.filter
        (fun q ->
          match move_of q ms with
          | Some (M_advance inv_q) -> commute inv_p inv_q
          | Some (M_begin (_, prog_q)) -> (not completed) && not (instant prog_q)
          | None -> false)
        (Pid_set.union sleep explored)

(* A visited key's sleep sets form a ⊆-antichain: a revisit is pruned iff
   some recorded set is a subset of its sleep set (no fewer awake moves);
   otherwise its set is recorded and the supersets it covers dropped.  The
   antichains are hash-consed per task — a few hundred distinct lists
   serve over a million keys — and the table stores each key's antichain
   as an id.  Top-level helpers, so checking a revisit allocates
   nothing. *)
let rec covered csleep = function
  | [] -> false
  | sl :: rest -> Pid_set.subset sl csleep || covered csleep rest

let rec drop_supersets csleep = function
  | [] -> []
  | sl :: rest ->
    if Pid_set.subset csleep sl then drop_supersets csleep rest
    else sl :: drop_supersets csleep rest

let mix_pid p h = mix h p

let rec chain_hash h = function
  | [] -> h
  | sl :: rest -> chain_hash (mix (Pid_set.fold mix_pid sl h) (-1)) rest

let rec chain_equal c1 c2 =
  c1 == c2
  ||
  match (c1, c2) with
  | s1 :: t1, s2 :: t2 -> Pid_set.equal s1 s2 && chain_equal t1 t2
  | [], [] -> true
  | [], _ :: _ | _ :: _, [] -> false

let intern_chain chains c = Fp_intern.intern chains ~hash:(chain_hash 0 c) c

(* --- subtree exploration --- *)

type task = {
  t_node : node;
  t_tally : tally; (* the node's tallies; each run searches a copy *)
  t_path : (Op.pid * move) list; (* moves from the root to the node *)
  t_sleep : Pid_set.t;
  t_depth : int;
  t_completed : bool; (* the move into this node completed a call *)
}

type sub = {
  s_histories : int;
  s_truncated : int;
  s_states : int;
  s_dedup : int;
  s_por : int;
  s_maxd : int;
  s_violation : (Op.pid * move) list option; (* the path from the root *)
  s_capped : bool;
  s_orbit : int; (* dedup hits whose canonical key was relabeled *)
  s_fp_distinct : int;
  s_fp_collisions : int;
  s_fp_resizes : int;
  s_fp_slots : int;
}

(* How a subtree task may count leaves.

   [B_fixed n]: count exactly up to [n] leaves, then stop "capped"
   immediately after the [n]-th — the canonical sequential semantics.

   [B_shared pool]: draw chunked leases from a shared atomic pool; a task
   that cannot refill stops capped at the same program point (immediately
   after the leaf that drained its allowance).  Leasing is first-come-
   first-served and therefore scheduling-dependent; the reconciliation
   pass in [check] restores the canonical accounting afterwards.  Unused
   allowance is refunded when the task stops, so at jobs=1 the pool drains
   exactly in task order and reconciliation accepts every task as-is. *)
type budget_src = B_fixed of int | B_shared of int Atomic.t

let lease_chunk = 64

let take_lease pool =
  let rec go () =
    let avail = Atomic.get pool in
    if avail <= 0 then 0
    else
      let want = min lease_chunk avail in
      if Atomic.compare_and_set pool avail (avail - want) then want else go ()
  in
  go ()

(* Depth-first exploration of one subtree with a private visited table and
   history allowance.  With [B_fixed] the result is a pure function of the
   task and the budget; with [B_shared] only the {e stop point} may vary
   with scheduling, and it always lies immediately after some counted
   leaf — which is what lets [check] reconcile shared-lease runs against
   the fixed-budget semantics without re-exploring completed tasks. *)
let explore_subtree ~dedup ~por ~commute ~property ~scripts
    ~max_steps_per_history ~budget ~symmetry task =
  (* State identity: (incremental hash, packed key) pairs interned to
     dense ints; the visited table and its sleep-set antichains then key
     on ints.  The tables, the ids the keys refer to and the
     canonicalization scratch are task-private, so no synchronization. *)
  let intern : string Fp_intern.t = Fp_intern.create ~equal:String.equal () in
  let sc = scratch ~n:(Array.length task.t_node.meta) ~ids:(ids ()) symmetry in
  let symmetric = Array.length sc.sym_arr >= 2 in
  let tl = copy_tally task.t_tally in
  let chains : Pid_set.t list Fp_intern.t =
    Fp_intern.create ~size:64 ~equal:chain_equal ()
  in
  ignore (intern_chain chains [] : int) (* id 0: no visit recorded *);
  (* Each key's antichain id, indexed directly by interned id: ids are
     dense (0, 1, 2, ...), so a growable array replaces a second hash
     lookup. *)
  let visited = ref (Array.make 1024 0) in
  let antichain id =
    let arr = !visited in
    if id < Array.length arr then arr.(id)
    else begin
      let arr' = Array.make (max (2 * Array.length arr) (id + 1)) 0 in
      Array.blit arr 0 arr' 0 (Array.length arr);
      visited := arr';
      0
    end
  in
  let histories = ref 0 and truncated = ref 0 and states = ref 0 in
  let dedup_hits = ref 0 and por_prunes = ref 0 and maxd = ref 0 in
  let orbit_hits = ref 0 in
  let credits = ref 0 in (* leaves we may still count before refilling *)
  let leaf ~checked node =
    incr histories;
    if (not checked) && not (property (calls tl node)) then
      raise (Stopped (Some []));
    decr credits;
    if !credits = 0 then begin
      (match budget with
      | B_fixed _ -> ()
      | B_shared pool -> credits := take_lease pool);
      if !credits = 0 then raise (Stopped None)
    end
  in
  let rec visit node sleep depth ~completed =
    incr states;
    if depth > !maxd then maxd := depth;
    (* The verdict can change only when a call completes; checking there
       (rather than at leaves alone) is what makes pruning sound: every
       prefix is judged before its extensions are shared or discarded. *)
    let checked =
      completed
      && (property (calls tl node) || raise (Stopped (Some [])))
    in
    if depth >= max_steps_per_history then begin
      incr truncated;
      leaf ~checked node
    end
    else
      match moves scripts node.meta with
      | [] -> leaf ~checked node
      | ms -> (
        let awake =
          if Pid_set.is_empty sleep then ms
          else List.filter (fun (p, _) -> not (Pid_set.mem p sleep)) ms
        in
        match awake with
        | [] ->
          (* Every enabled move is asleep: each is independent of some
             already-explored sibling order, so this branch is covered by
             a representative elsewhere; not a leaf. *)
          incr por_prunes
        | awake ->
          if (not dedup) || fresh node sleep then
            ignore
              (List.fold_left
                 (fun explored ((p, mv) as pm) ->
                   restoring tl node pm (fun child ~completed ->
                       visit child
                         (child_sleep ~por ~commute ~completed ms sleep
                            explored mv)
                         (depth + 1) ~completed);
                   Pid_set.add p explored)
                 Pid_set.empty awake))
  (* The dedup key — never the live search state — is mapped to its
     orbit-canonical representative; the sleep set crosses into the same
     canonical coordinates before it meets the antichain (recorded entries
     live there too).  The remaining depth budget is deliberately not
     compared: a revisit may arrive shallower (a completed call got there
     in fewer spin iterations) and so see a slightly deeper horizon, but
     comparing budgets re-explores every spin state once per distinct
     arrival depth — the dominant cost on spin-heavy searches.  When no
     branch truncates the budget never binds and pruning is exact; when
     one does, the run is already reported incomplete. *)
  and fresh node sleep =
    if symmetric then canonicalize sc node.meta
    else begin
      sc.s_meta <- node.meta;
      sc.relabeled <- false
    end;
    let csleep =
      if sc.relabeled then Pid_set.map (fun q -> sc.perm.(q)) sleep else sleep
    in
    let cmh = if sc.relabeled then mh_relabeled sc else node.mh in
    encode sc node.mem;
    let id =
      Fp_intern.intern_with intern
        ~hash:(mix (Memory.fp_hash node.mem) cmh)
        ~equal:key_equal ~make:key_of sc
    in
    (* Prune iff a prior visit (of the orbit) had a sleep set no larger;
       else record this visit's sleep set in the antichain. *)
    let entries = Fp_intern.key chains (antichain id) in
    let hit = covered csleep entries in
    if hit then begin
      incr dedup_hits;
      if sc.relabeled then incr orbit_hits
    end
    else
      !visited.(id) <-
        intern_chain chains (csleep :: drop_supersets csleep entries);
    not hit
  in
  let initial_credits =
    match budget with B_fixed n -> max 0 n | B_shared pool -> take_lease pool
  in
  let violation, capped =
    if initial_credits <= 0 then (None, true)
    else begin
      credits := initial_credits;
      let outcome =
        match
          visit task.t_node task.t_sleep task.t_depth
            ~completed:task.t_completed
        with
        | () -> (None, false)
        | exception Stopped None -> (None, true)
        | exception Stopped (Some path) -> (Some (task.t_path @ path), false)
      in
      (* Return what we did not consume, so later tasks can lease it. *)
      (match budget with
      | B_fixed _ -> ()
      | B_shared pool ->
        ignore (Atomic.fetch_and_add pool !credits);
        credits := 0);
      outcome
    end
  in
  { s_histories = !histories;
    s_truncated = !truncated;
    s_states = !states;
    s_dedup = !dedup_hits;
    s_por = !por_prunes;
    s_maxd = !maxd;
    s_violation = violation;
    s_capped = capped;
    s_orbit = !orbit_hits;
    s_fp_distinct = Fp_intern.distinct intern;
    s_fp_collisions = Fp_intern.collisions intern;
    s_fp_resizes = Fp_intern.resizes intern;
    s_fp_slots = Fp_intern.slots intern }

(* Expand the first [split_depth] levels sequentially (POR-aware, property
   checked, leaves and truncations accounted) and collect the depth-
   [split_depth] nodes as independent tasks, in DFS order.  The expansion
   never dedups — frontier nodes must all be produced so that the task
   list, and hence the merged verdict, is a pure function of the input. *)
let expand ~por ~commute ~property ~scripts ~max_steps_per_history
    ~max_histories ~split_depth root =
  let tasks = ref [] in
  let histories = ref 0 and truncated = ref 0 and states = ref 0 in
  let maxd = ref 0 in
  let tl = tally0 (Array.length root.meta) in
  let leaf ~checked node =
    incr histories;
    if (not checked) && not (property (calls tl node)) then
      raise (Stopped (Some []));
    if !histories >= max_histories then raise (Stopped None)
  in
  let rec visit node path_rev sleep depth ~completed =
    if depth >= split_depth && moves scripts node.meta <> []
       && depth < max_steps_per_history
    then
      tasks :=
        { t_node = node;
          t_tally = copy_tally tl;
          t_path = List.rev path_rev;
          t_sleep = sleep;
          t_depth = depth;
          t_completed = completed }
        :: !tasks
    else begin
      incr states;
      if depth > !maxd then maxd := depth;
      let checked =
        completed
        && (property (calls tl node) || raise (Stopped (Some [])))
      in
      if depth >= max_steps_per_history then begin
        incr truncated;
        leaf ~checked node
      end
      else
        match moves scripts node.meta with
        | [] -> leaf ~checked node
        | ms ->
          ignore
            (List.fold_left
               (fun explored ((p, mv) as pm) ->
                 if Pid_set.mem p sleep then explored
                 else begin
                   restoring tl node pm (fun child ~completed ->
                       visit child (pm :: path_rev)
                         (child_sleep ~por ~commute ~completed ms sleep
                            explored mv)
                         (depth + 1) ~completed);
                   Pid_set.add p explored
                 end)
               Pid_set.empty ms)
    end
  in
  let stopped =
    match visit root [] Pid_set.empty 0 ~completed:false with
    | () -> None
    | exception Stopped v -> Some v
  in
  (List.rev !tasks, !histories, !truncated, !states, !maxd, stopped)

let default_split_depth = 2

let zero_capped_sub =
  { s_histories = 0;
    s_truncated = 0;
    s_states = 0;
    s_dedup = 0;
    s_por = 0;
    s_maxd = 0;
    s_violation = None;
    s_capped = true;
    s_orbit = 0;
    s_fp_distinct = 0;
    s_fp_collisions = 0;
    s_fp_resizes = 0;
    s_fp_slots = 0 }

let check ?(max_histories = 1_000_000) ?(max_steps_per_history = 500)
    ?(dedup = true) ?(por = true) ?(commute = Op.commute) ?(jobs = 1)
    ?(split_depth = default_split_depth) ?(symmetry = Pid_set.empty)
    ~layout ~model ~n ~scripts ~property () =
  (* Monotonic wall clock, not [Sys.time] (which is CPU time and so *shrinks*
     relative to elapsed time exactly when [jobs] > 1 parallelizes the search
     — or inflates, summing across domains, depending on the runtime). *)
  let t0 = Obs.Clock.now_s () in
  let split_depth = max 0 split_depth in
  let tasks, pre_h, pre_t, pre_states, pre_maxd, stopped =
    expand ~por ~commute ~property ~scripts ~max_steps_per_history
      ~max_histories ~split_depth (root ~model ~layout ~n)
  in
  let finish ~histories ~truncated ~states ~dedup_hits ~por_prunes ~tasks:k
      ~max_depth ~orbit_hits ~fp_distinct ~fp_collisions ~fp_resizes
      ~fp_slots ~violation ~capped =
    { histories;
      truncated;
      complete = violation = None && (not capped) && truncated = 0;
      violation = Option.map (replay ~model ~layout ~n) violation;
      stats =
        { states;
          dedup_hits;
          por_prunes;
          tasks = k;
          max_depth;
          orbit_hits;
          fp_distinct;
          fp_collisions;
          fp_resizes;
          fp_slots;
          wall_s = Obs.Clock.elapsed_s ~since:t0 } }
  in
  match stopped with
  | Some v ->
    (* The expansion itself found a violation or hit the cap; subtree tasks
       are skipped, deterministically. *)
    finish ~histories:pre_h ~truncated:pre_t ~states:pre_states ~dedup_hits:0
      ~por_prunes:0 ~tasks:0 ~max_depth:pre_maxd ~orbit_hits:0 ~fp_distinct:0
      ~fp_collisions:0 ~fp_resizes:0 ~fp_slots:0 ~violation:v
      ~capped:(v = None)
  | None ->
    let k = List.length tasks in
    let run_task budget task =
      explore_subtree ~dedup ~por ~commute ~property ~scripts
        ~max_steps_per_history ~budget ~symmetry task
    in
    (* Dynamic work-sharing: tasks are drained from [Parallel.map]'s shared
       atomic queue, and each draws history allowance as chunked leases
       from one shared pool — so no task idles on a private slice of the
       budget while a spin-heavy sibling starves. *)
    let remaining_cap = max 0 (max_histories - pre_h) in
    let pool = Atomic.make remaining_cap in
    let raw = Parallel.map ~jobs (run_task (B_shared pool)) tasks in
    (* Reconciliation, in task order: normalize the first-come-first-served
       lease accounting back to the canonical semantics "task [i] may
       count whatever of [max_histories] its predecessors left over".  A
       task is accepted as-is when its recorded run provably equals the
       fixed-budget run — it finished naturally within the remaining
       budget, or it stopped by exhaustion exactly at the remaining budget
       (same stop point, immediately after that leaf).  Anything else
       (starved by concurrent leases, or run past what the sequential
       budget allows) is re-run with the exact fixed budget; re-runs cost
       at most the budget they are given and only arise on capped
       searches.  The accepted list — and therefore every reported number
       and the surviving violation — is a pure function of the task list,
       independent of [jobs] and of lease scheduling. *)
    let subs =
      let budget_left = ref remaining_cap in
      List.map2
        (fun task s ->
          let b = !budget_left in
          if b <= 0 then zero_capped_sub
          else if (not s.s_capped) && s.s_histories < b then begin
            budget_left := b - s.s_histories;
            s
          end
          else if s.s_capped && s.s_histories = b then begin
            budget_left := 0;
            s
          end
          else begin
            let s' = run_task (B_fixed b) task in
            budget_left := b - s'.s_histories;
            s'
          end)
        tasks raw
    in
    let violation =
      List.find_map (fun s -> s.s_violation) subs (* first in task order *)
    in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 subs in
    finish
      ~histories:(pre_h + sum (fun s -> s.s_histories))
      ~truncated:(pre_t + sum (fun s -> s.s_truncated))
      ~states:(pre_states + sum (fun s -> s.s_states))
      ~dedup_hits:(sum (fun s -> s.s_dedup))
      ~por_prunes:(sum (fun s -> s.s_por))
      ~tasks:k
      ~max_depth:(List.fold_left (fun acc s -> max acc s.s_maxd) pre_maxd subs)
      ~orbit_hits:(sum (fun s -> s.s_orbit))
      ~fp_distinct:(sum (fun s -> s.s_fp_distinct))
      ~fp_collisions:(sum (fun s -> s.s_fp_collisions))
      ~fp_resizes:(sum (fun s -> s.s_fp_resizes))
      ~fp_slots:(sum (fun s -> s.s_fp_slots))
      ~violation
      ~capped:(List.exists (fun s -> s.s_capped) subs)

(* Internal canonicalization and key-packing machinery, re-exported under
   stable constructors so the test suite can state the canonicalization laws
   (idempotence, invariance under relabelings, pinned slots untouched,
   hash and key through the permutation agreeing with the materialized
   array) and the packing law (equal keys iff equal states) directly
   against the production comparator, sort, permutation and encoder.  The
   relabeling and the structural equality below are the reference those
   laws are stated against; the search uses neither. *)
module Testing = struct
  type slot = pmeta

  let idle ~begun ~last : slot = P_idle (begun, last)

  let running ~label ~seq ~resps_rev ~snap : slot =
    P_running
      { program = Program.Return 0 (* never read by key machinery *);
        label;
        label_h = Hashtbl.hash label;
        seq;
        resps_rev;
        resps_len = List.length resps_rev;
        resps_h = List.fold_left mix 0 (List.rev resps_rev);
        snap = Array.copy snap }

  (* Image of the metadata array under [perm] (old pid -> new pid):
     slot [p] moves to [perm.(p)] and every running slot's snapshot — the
     pinned ones included — is re-indexed the same way.  Fresh arrays
     only. *)
  let relabel ~(perm : int array) (meta : slot array) =
    let n = Array.length meta in
    let relabel_snap (s : int array) =
      let s' = Array.make n 0 in
      for q = 0 to n - 1 do
        s'.(perm.(q)) <- s.(q)
      done;
      s'
    in
    let out = Array.make n (P_idle (0, None)) in
    for p = 0 to n - 1 do
      out.(perm.(p)) <-
        (match meta.(p) with
        | P_idle _ as pm -> pm
        | P_running m -> P_running { m with snap = relabel_snap m.snap })
    done;
    out

  let value_opt_equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Op.value_equal x y
    | None, Some _ | Some _, None -> false

  let rec resps_equal l1 l2 =
    match (l1, l2) with
    | x :: t1, y :: t2 -> Op.value_equal x y && resps_equal t1 t2
    | [], [] -> true
    | [], _ :: _ | _ :: _, [] -> false

  let snap_equal (s1 : int array) (s2 : int array) =
    Array.length s1 = Array.length s2 && Array.for_all2 Int.equal s1 s2

  let slot_equal a b =
    match (a, b) with
    | P_idle (c1, r1), P_idle (c2, r2) -> c1 = c2 && value_opt_equal r1 r2
    | P_running m1, P_running m2 ->
      String.equal m1.label m2.label
      && m1.seq = m2.seq
      && resps_equal m1.resps_rev m2.resps_rev
      && snap_equal m1.snap m2.snap
    | P_idle _, P_running _ | P_running _, P_idle _ -> false

  let equal (a : slot array) (b : slot array) =
    Array.length a = Array.length b && Array.for_all2 slot_equal a b

  type nonrec ids = ids

  let ids = ids

  let shared_ids = lazy (ids ())

  (* The scratch after canonicalizing [meta]. *)
  let canonicalized ?(ids = Lazy.force shared_ids) ~symmetry
      (meta : slot array) =
    let sc = scratch ~n:(Array.length meta) ~ids symmetry in
    if Array.length sc.sym_arr >= 2 then canonicalize sc meta
    else sc.s_meta <- meta;
    sc

  let canonicalize ~symmetry (meta : slot array) =
    let sc = canonicalized ~symmetry meta in
    ((if sc.relabeled then relabel ~perm:sc.perm meta else meta), sc.relabeled)

  let hash = mh_full

  let canonical_hash ~symmetry (meta : slot array) =
    let sc = canonicalized ~symmetry meta in
    if sc.relabeled then mh_relabeled sc else mh_full meta

  let key ?ids ~symmetry mem (meta : slot array) =
    let sc = canonicalized ?ids ~symmetry meta in
    encode sc mem;
    key_of sc

  let empty_mem = lazy (Memory.create (Var.Ctx.freeze (Var.Ctx.create ())))

  let canonical_equal ~symmetry (meta : slot array) (stored : slot array) =
    let mem = Lazy.force empty_mem in
    String.equal (key ~symmetry mem meta)
      (key ~symmetry:Pid_set.empty mem stored)

  let heap_sort cmp (a : int array) = heap_sort (fun f x y -> f x y) cmp a
end
