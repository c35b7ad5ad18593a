(* Behavior signatures for coverage feedback.

   The ROADMAP's coverage item asks to bucket fuzz cases by which engine
   branches they exercise.  The counter planes give that signal for free:
   run the elaborated case once on the flat engine with {!Obs.Counters}
   armed, and the set of (event class → how many distinct cells fired ×
   order-of-magnitude total) is a cheap, deterministic behavior signature
   — two cases with the same signature drove the engine through the same
   classes of branches at the same scale, so evaluating the full oracle
   lattice on both rarely learns anything new.

   The signature run fixes one cost model (write-through on a bus, the
   protocol with the richest event mix: fetches, invalidations and
   roundtrips all occur) and an LRU that never evicts, so the signature is
   a function of the case alone.  Totals are bucketed to their binary
   order of magnitude: coverage should distinguish "a handful" from "a
   thousand" invalidations, not 17 from 18. *)

open Smr

let norm_pid n p = if n <= 0 then 0 else ((p mod n) + n) mod n

(* floor(log2 v) + 1 for positive v: the bucket index of a total. *)
let bucket v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let signature_of_counters c =
  let size = Obs.Counters.size c in
  let parts =
    List.filter_map
      (fun cls ->
        let total = Obs.Counters.total c cls in
        if total = 0 then None
        else begin
          let cells = ref 0 in
          for a = 0 to size - 1 do
            if Obs.Counters.cell_total c ~addr:a cls > 0 then incr cells
          done;
          Some
            (Printf.sprintf "%s:%dc/b%d" (Obs.Counters.cls_name cls) !cells
               (bucket total))
        end)
      Obs.Counters.classes
  in
  let parts =
    match Obs.Counters.total_messages c with
    | 0 -> parts
    | m -> parts @ [ Printf.sprintf "msg:b%d" (bucket m) ]
  in
  match parts with [] -> "quiet" | _ -> String.concat " " parts

let signature (case : Case.t) =
  let rn = Case.elaborate case in
  let size = Var.layout_size rn.Case.r_layout in
  let counters = Obs.Counters.create ~groups:1 ~n:rn.Case.r_n ~size () in
  let flat =
    Flat_sim.create ~counters
      ~ll_ways:(max 4 size)
      ~model:(Core.Loadgen.flat_model ~ways:(max 1 size) `Cc_wt)
      ~layout:rn.Case.r_layout ~n:rn.Case.r_n ()
  in
  let queues = Array.copy rn.Case.r_calls in
  let apply d =
    match d with
    | Case.Crash p ->
      let p = norm_pid rn.Case.r_n p in
      if Flat_sim.is_running flat p then Flat_sim.crash flat p
    | Case.Step p -> (
      let p = norm_pid rn.Case.r_n p in
      if Flat_sim.is_terminated flat p then ()
      else if Flat_sim.is_running flat p then Flat_sim.advance flat p
      else
        match queues.(p) with
        | [] -> ()
        | (label, prog) :: rest ->
          queues.(p) <- rest;
          Flat_sim.begin_call flat p ~label prog)
  in
  List.iter apply case.Case.schedule;
  for p = 0 to rn.Case.r_n - 1 do
    if Flat_sim.is_running flat p then Flat_sim.crash flat p
  done;
  signature_of_counters counters
