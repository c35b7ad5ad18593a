(* Cache-coherent cost models (paper, Secs. 2 and 8).

   The paper's upper bounds need only a "loose" CC model: once a process has
   read a location, further reads are local until some other process performs
   a nontrivial operation on it.  That is exactly the behavior of an ideal
   invalidation-based cache, which [Write_through] implements.  [Write_back]
   additionally makes repeated writes by the exclusive owner local, and
   [Write_update] models the LFCU machines of Anderson & Kim [1] (remote
   copies are updated rather than invalidated, and a failed comparison
   primitive applied to a cached copy is local).

   Message accounting follows Section 8: under a [Bus] interconnect any
   coherence action is one broadcast; under a precise directory an
   invalidation or update costs one message per remote copy; under a limited
   directory with [k]-entry sharer lists, a write to a line with more than
   [k] sharers falls back to broadcasting to all other processors —
   "superfluous invalidation messages". *)

type protocol = Write_through | Write_back | Write_update

let protocol_name = function
  | Write_through -> "cc-wt"
  | Write_back -> "cc-wb"
  | Write_update -> "cc-lfcu"

let protocols = [ Write_through; Write_back; Write_update ]

type interconnect = Bus | Directory_precise | Directory_limited of int

let interconnect_name = function
  | Bus -> "bus"
  | Directory_precise -> "dir"
  | Directory_limited k -> Printf.sprintf "dir%d" k

(* The protocol table: what the coherence protocol does with one access,
   given what the accessing process's cache holds.  This is the only
   place a protocol is decided; [account] below and [Flat_sim] apply the
   answer to their own stores, and the amortized lint bills its worst
   case.  The answer is a constant constructor, so deciding allocates
   nothing. *)
type access =
  | Hit
  | Hit_in_place
  | Miss
  | Round_trip
  | Invalidate
  | Take_ownership
  | Update

let decide protocol inv ~wrote ~has_copy ~owned =
  if Op.is_read_only inv then if has_copy then Hit else Miss
  else
    match protocol with
    | Write_through -> if wrote then Invalidate else Round_trip
    | Write_back -> if owned then Hit else Take_ownership
    | Write_update ->
      if wrote || not (Op.is_comparison inv) then Update
      else if has_copy then Hit_in_place
      else Miss

let is_rmr = function
  | Hit | Hit_in_place -> false
  | Miss | Round_trip | Invalidate | Take_ownership | Update -> true

module Addr_map = Map.Make (Int)
module Pid_map = Map.Make (Int)
module Pid_set = Set.Make (Int)

(* Copy membership lives in per-cell holder sets ([copies]): [has_copy] is
   a map + set lookup and [remote_holders] walks only the cell's actual
   holders, where the former MRU-list representation scanned a process's
   whole cached set per access — O(cached-set) work that made CC billing
   quadratic at [separation load] scale.

   The MRU-ordered per-process lists survive only under a capacity bound:
   Section 8 notes that theoretical RMR bounds assume an "ideal" cache that
   never drops data spuriously, an assumption that fails under finite
   capacity — [capacity = Some k] models that with LRU eviction (experiment
   E12 measures the effect), and there the list is at most [k] long.  An
   unbounded cache never evicts, so recency order is unobservable and only
   the holder sets are kept. *)
type state = {
  caches : Op.addr list Pid_map.t; (* MRU first; maintained iff bounded *)
  copies : Pid_set.t Addr_map.t; (* per-cell copy-holder sets *)
  owner : Op.pid Addr_map.t; (* write-back: exclusive (dirty) owner *)
  capacity : int option;
}

let empty capacity =
  { caches = Pid_map.empty;
    copies = Addr_map.empty;
    owner = Addr_map.empty;
    capacity }

let cache_of st pid =
  match Pid_map.find_opt pid st.caches with Some l -> l | None -> []

let holders st a =
  match Addr_map.find_opt a st.copies with
  | Some s -> s
  | None -> Pid_set.empty

let has_copy st pid a = Pid_set.mem pid (holders st a)

(* Processes other than [pid] holding a copy of [a], in descending pid
   order (the order the former cache-map fold produced). *)
let remote_holders st pid a =
  Pid_set.fold
    (fun q acc -> if q <> pid then q :: acc else acc)
    (holders st a) []

(* Whether [pid] is [a]'s exclusive owner.  Two lookups rather than
   [Addr_map.find_opt a st.owner = Some pid], which allocates on every
   access. *)
let owns st pid a = Addr_map.mem a st.owner && Addr_map.find a st.owner = pid

let record_copy copies pid a =
  let hs =
    match Addr_map.find_opt a copies with Some s -> s | None -> Pid_set.empty
  in
  Addr_map.add a (Pid_set.add pid hs) copies

let unrecord_copy copies pid a =
  match Addr_map.find_opt a copies with
  | None -> copies
  | Some hs ->
    let hs = Pid_set.remove pid hs in
    if Pid_set.is_empty hs then Addr_map.remove a copies
    else Addr_map.add a hs copies

(* Touch [a] in [pid]'s cache: give it a valid copy and, under a capacity
   bound, move the line to MRU position, evicting the LRU line if the bound
   is hit.  An evicted dirty (owned) line loses its ownership — the
   writeback itself is charged when the line is next accessed remotely.
   A hit on an unbounded cache returns the state physically unchanged, so
   spin reads allocate no new state. *)
let add_copy st pid a =
  match st.capacity with
  | None ->
    if has_copy st pid a then st
    else { st with copies = record_copy st.copies pid a }
  | Some cap -> (
    let cache0 = cache_of st pid in
    match cache0 with
    | b :: _ when b = a -> st (* already most-recently-used: nothing moves *)
    | _ ->
      let cache = a :: List.filter (fun b -> b <> a) cache0 in
      let cache, evicted =
        if List.length cache > cap then
          let rec split i = function
            | [] -> ([], [])
            | x :: rest ->
              if i >= cap then ([], x :: rest)
              else
                let keep, drop = split (i + 1) rest in
                (x :: keep, drop)
          in
          split 0 cache
        else (cache, [])
      in
      let owner =
        List.fold_left
          (fun owner b ->
            match Addr_map.find_opt b owner with
            | Some q when q = pid -> Addr_map.remove b owner
            | Some _ | None -> owner)
          st.owner evicted
      in
      let copies =
        List.fold_left
          (fun copies b -> unrecord_copy copies pid b)
          (record_copy st.copies pid a)
          evicted
      in
      { st with caches = Pid_map.add pid cache st.caches; owner; copies })

let drop_copy st pid a =
  let caches =
    match st.capacity with
    | None -> st.caches
    | Some _ ->
      Pid_map.add pid
        (List.filter (fun b -> b <> a) (cache_of st pid))
        st.caches
  in
  { st with caches; copies = unrecord_copy st.copies pid a }

(* Messages needed to reach the remote copy holders of [a] (invalidate or
   update them), given [m] remote copies out of [n] processors. *)
let coherence_messages interconnect ~n ~m =
  if m = 0 then 0
  else
    match interconnect with
    | Bus -> 1
    | Directory_precise -> m
    | Directory_limited k -> if m <= k then m else n - 1

(* A read miss: one fetch, plus a write-back transfer if a dirty owner holds
   the line elsewhere. *)
let miss_messages ~dirty_elsewhere = 1 + if dirty_elsewhere then 1 else 0

type t = {
  protocol : protocol;
  interconnect : interconnect;
  n : int;
  st : state;
}

(* Cache-line transition events, into the trace a live traced step hands
   [account] together with its tick; a replay or an untraced step hands
   none. *)
let emit_cache ~trace t pid a ~action ~copies ~messages =
  match trace with
  | None -> ()
  | Some (tr, now) ->
    Obs.Trace.emit tr
      (Obs.Event.Cache
         { t = now; pid; addr = a; action; copies; messages;
           protocol = protocol_name t.protocol;
           interconnect = interconnect_name t.interconnect })

(* A hit refreshes the line's recency (true LRU); when the line is already
   most-recently-used the model is returned physically unchanged. *)
let hit t pid a =
  let st = add_copy t.st pid a in
  ((if st == t.st then t else { t with st }), Cost_model.local)

let miss ~trace t pid a =
  let dirty_elsewhere = Addr_map.mem a t.st.owner && not (owns t.st pid a) in
  let messages = miss_messages ~dirty_elsewhere in
  emit_cache ~trace t pid a ~action:"fetch"
    ~copies:(if dirty_elsewhere then 1 else 0)
    ~messages;
  (* The previous owner's line is downgraded to shared.  The owner map is
     [add_copy]'s, which has already dropped the ownership of any line the
     fill evicted. *)
  let st = add_copy t.st pid a in
  ( { t with st = { st with owner = Addr_map.remove a st.owner } },
    { Cost_model.rmr = true; messages } )

(* A write-like access that must reach memory and kill/update remote copies. *)
let write ~trace ~invalidate ~own t pid a =
  let remote = remote_holders t.st pid a in
  let m = List.length remote in
  let base = 1 (* the memory / directory transaction itself *) in
  let messages = base + coherence_messages t.interconnect ~n:t.n ~m in
  emit_cache ~trace t pid a
    ~action:(if invalidate then "invalidate" else "update")
    ~copies:m ~messages;
  let st =
    if invalidate then
      List.fold_left (fun st q -> drop_copy st q a) t.st remote
    else t.st (* write-update: remote copies stay valid, refreshed *)
  in
  let st = add_copy st pid a in
  let owner =
    if own then Addr_map.add a pid st.owner else Addr_map.remove a st.owner
  in
  ({ t with st = { st with owner } }, { Cost_model.rmr = true; messages })

let account t ~trace pid inv ~wrote =
  let a = Op.addr_of inv in
  let has_copy = has_copy t.st pid a in
  match decide t.protocol inv ~wrote ~has_copy ~owned:(owns t.st pid a) with
  | Hit -> hit t pid a
  | Hit_in_place -> (t, Cost_model.local)
  | Miss -> miss ~trace t pid a
  | Round_trip ->
    (* A failed mutating primitive still performs the global round trip
       (one message, billed before the refill's own traffic) but
       invalidates nothing; its cache effect is that of a read. *)
    emit_cache ~trace t pid a ~action:"roundtrip" ~copies:0 ~messages:1;
    let t, _ = if has_copy then hit t pid a else miss ~trace t pid a in
    (t, { Cost_model.rmr = true; messages = 1 })
  | Invalidate -> write ~trace ~invalidate:true ~own:false t pid a
  | Take_ownership -> write ~trace ~invalidate:true ~own:true t pid a
  | Update -> write ~trace ~invalidate:false ~own:false t pid a

(* [decide] with the outcome unknown: commit only when both outcomes agree
   on locality. *)
let predict t pid inv =
  let a = Op.addr_of inv in
  let has_copy = has_copy t.st pid a and owned = owns t.st pid a in
  let rmr wrote = is_rmr (decide t.protocol inv ~wrote ~has_copy ~owned) in
  let r = rmr true in
  if r = rmr false then Some r else None

let model ?(protocol = Write_through) ?(interconnect = Bus) ?capacity ~n () =
  let full_name =
    Printf.sprintf "%s/%s%s" (protocol_name protocol)
      (interconnect_name interconnect)
      (match capacity with
      | Some c -> Printf.sprintf "/cap%d" c
      | None -> "")
  in
  (* [make_stateful] shares the wrapper across steps that leave the cache
     state physically unchanged, so the hits (spin reads of an MRU line,
     owned write-back writes, failed cached LFCU comparisons) allocate no
     new model — the explorer's stepping hot path. *)
  Cost_model.make_stateful ~name:full_name ~account ~predict
    { protocol; interconnect; n; st = empty capacity }
