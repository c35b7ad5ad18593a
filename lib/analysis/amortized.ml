(* The amortized-bound pass: interpret a call's CFG over the cache lattice
   and prove a [Claims.amortized] bound.

   The potential function is Phi(state) = number of cells in the call's
   read footprint the process does not hold.  One interpreted call from
   state S costs at most its worst path cost; external interference raises
   Phi by at most the number of footprint cells the interferer can
   invalidate ([refills]).
   Over any execution with N calls and S interfering external calls the
   telescoped total is

       total RMRs  <=  cold + N * steady + S * refills

   where [cold] pays Phi down from the nothing-held start (the c0 of the
   claim) and [steady] is the per-call cost once the inter-call cache state
   has reached its fixpoint.

   Two structural facts make the analysis exact and terminating:

   - {!Cfg.extract} produces a {e tree} (each node has one incoming path),
     so a path-sensitive walk that records every node's in-state is linear
     and the worst path is a max-fold, exactly as {!Checks.worst_rmrs}.
   - {!Absdomain.transfer} only adds cells to the held set, so the
     inter-call exit state forms a descending chain in a finite lattice:
     iterating whole-call interpretation from nothing held converges, in
     at most one step per footprint cell.

   A cycle is billed by its residual: re-run the body from its own
   post-first-pass state; any cost still incurred recurs on every further
   iteration, and the spin count is not statically bounded, so a nonzero
   residual makes the call's bound [Unbounded].  Since every mutation
   bills, that happens exactly when a cycle contains a non-read-only
   operation — sound spin loops must be read-only on cached cells. *)

open Smr

type result = {
  cold : Claims.bound;
  steady : Claims.bound;
  refills : int;
  footprint : Op.addr list;
}

let interpret st0 (cfg : Cfg.t) =
  let in_state = Array.make (max 1 (Array.length cfg.Cfg.nodes)) Absdomain.top in
  let exit_state = ref None in
  let note_exit st =
    exit_state :=
      Some (match !exit_state with None -> st | Some s -> Absdomain.join s st)
  in
  let rec walk st target =
    match target with
    | Cfg.Done | Cfg.Stuck _ | Cfg.Cut ->
      note_exit st;
      0
    | Cfg.Back _ ->
      (* Not a call exit: the looping branch continues inside this call;
         its eventual exits are the loop's other edges, walked above. *)
      0
    | Cfg.Jump id ->
      let node = cfg.Cfg.nodes.(id) in
      in_state.(id) <- st;
      let cost, st' = Absdomain.transfer st node.Cfg.inv in
      cost
      + List.fold_left
          (fun acc e -> max acc (walk st' e.Cfg.target))
          0 node.Cfg.edges
  in
  let worst = walk st0 cfg.Cfg.entry in
  let residual_cost =
    let pass st =
      List.fold_left
        (fun (cost, st) inv ->
          let c, st' = Absdomain.transfer st inv in
          (cost + c, st'))
        (0, st)
    in
    List.fold_left
      (fun acc (c : Cfg.cycle) ->
        (* One body pass from the cycle entry's recorded in-state reaches
           the loop's own fixpoint (transfers only add cells and the second
           pass revisits the same cells); the second pass's cost is what
           every further spin iteration pays. *)
        let _, st1 = pass in_state.(c.Cfg.entry) c.Cfg.body in
        let cost, _ = pass st1 c.Cfg.body in
        max acc cost)
      0 cfg.Cfg.cycles
  in
  let bound =
    if residual_cost > 0 then Claims.Unbounded else Claims.Rmr worst
  in
  let exit = match !exit_state with Some s -> s | None -> st0 in
  (bound, exit)

let read_addrs cfg =
  Cfg.invocations cfg
  |> List.filter Op.is_read_only
  |> List.map Op.addr_of
  |> List.sort_uniq compare

(* Fixpoint iterations are bounded by the footprint size in theory; the
   cap is a safety net against a non-monotone transfer slipping in. *)
let max_iters = 64

let analyze ~ext_mut cfg =
  let cold, s1 = interpret Absdomain.top cfg in
  let rec fix st cost iters =
    if iters <= 0 then cost
    else
      let cost', st' = interpret st cfg in
      if Absdomain.equal st' st then cost' else fix st' cost' (iters - 1)
  in
  let steady = fix s1 cold max_iters in
  let footprint = read_addrs cfg in
  { cold;
    steady;
    refills = List.length (List.filter ext_mut footprint);
    footprint }
