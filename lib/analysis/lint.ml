open Smr

type call_report = {
  call : string;
  pids : int;
  nodes : int;
  cycles : int;
  stuck : int;
  complete : bool;
  classes : Op.primitive_class list;
  spin : Claims.spin;
  rmrs : Claims.bound;
  amortized : Amortized.result;
  violations : string list;
}

type report = {
  entry : Registry.entry;
  calls : call_report list;
  writer_violations : string list;
  ok : bool;
}

module Addr_map = Map.Make (Int)

let spin_max a b = if Claims.spin_leq a b then b else a

let bound_max a b = if Claims.bound_leq a b then b else a

let class_name = function
  | Op.Reads_writes -> "reads/writes"
  | Op.Comparison -> "comparison"
  | Op.Fetch_and_phi -> "fetch-and-phi"

(* Base variable name: the part before an array suffix, so "reg[2]" and
   "reg[0]" both answer to a single-writer claim on "reg". *)
let base_name layout addr =
  let name = Var.layout_name layout addr in
  match String.index_opt name '[' with
  | Some i -> String.sub name 0 i
  | None -> name

let value_domain ~n ~layout =
  let inits = List.map (Var.layout_init layout) (Var.layout_addrs layout) in
  (* -1 covers the pid_opt NIL encoding; 0..n covers pids, booleans and
     small counters; initial values cover whatever the code compares
     against at start-up. *)
  List.sort_uniq compare ((-1) :: List.init (n + 1) (fun i -> i) @ inits)

let default_values entry =
  match entry.Registry.values with
  | Some vs -> vs
  | None -> value_domain ~n:entry.Registry.n ~layout:entry.Registry.layout

let run ?fuel ?unroll entry =
  let fuel =
    match entry.Registry.fuel with Some f -> Some f | None -> fuel
  in
  let unroll =
    match entry.Registry.unroll with Some u -> Some u | None -> unroll
  in
  let values = default_values entry in
  let extract ~exclusive pid program =
    Cfg.extract ?fuel ?unroll ~values ~exclusive ~pid program
  in
  (* Pass 1: no exclusivity assumptions; collect potential writers per cell
     across every call of the entry. *)
  let writers =
    List.fold_left
      (fun acc (call : Registry.call) ->
        List.fold_left
          (fun acc pid ->
            let cfg = extract ~exclusive:(fun _ -> false) pid (call.program pid) in
            List.fold_left
              (fun acc a ->
                let prev =
                  Option.value ~default:[] (Addr_map.find_opt a acc)
                in
                Addr_map.add a (List.sort_uniq compare (pid :: prev)) acc)
              acc
              (Checks.written_addrs cfg))
          acc call.pids)
      Addr_map.empty entry.calls
  in
  let writers_of a = Option.value ~default:[] (Addr_map.find_opt a writers) in
  let exclusive_for pid a =
    match writers_of a with [] -> true | [ q ] -> q = pid | _ -> false
  in
  let model = Cost_model.dsm entry.layout in
  (* A cell counts as externally mutable for [pid] when any other process
     may perform a non-read-only operation on it — the invalidation class
     the amortized pass's refill accounting uses (failed comparisons
     included, hence the pass-1 writers map is exactly the right source). *)
  let ext_mut_for pid a = List.exists (fun q -> q <> pid) (writers_of a) in
  (* Pass 2: owned-cell tracking on, evaluate the checks per call. *)
  let call_cfgs =
    List.map
      (fun (call : Registry.call) ->
        ( call,
          List.map
            (fun pid ->
              ( pid,
                extract ~exclusive:(exclusive_for pid) pid (call.program pid)
              ))
            call.pids ))
      entry.calls
  in
  let calls =
    List.map
      (fun ((call : Registry.call), pid_cfgs) ->
        let claim = Claims.call entry.claims call.label in
        let cfgs = List.map snd pid_cfgs in
        let nodes = List.fold_left (fun a c -> a + Cfg.size c) 0 cfgs in
        let cycles =
          List.fold_left (fun a c -> a + List.length c.Cfg.cycles) 0 cfgs
        in
        let stuck = List.fold_left (fun a c -> a + c.Cfg.stuck) 0 cfgs in
        let complete = List.for_all (fun c -> c.Cfg.complete) cfgs in
        let classes =
          List.sort_uniq compare
            (List.concat_map Checks.used_classes cfgs)
        in
        let spin =
          List.fold_left
            (fun acc c ->
              spin_max acc (Checks.observed_spin ~layout:entry.layout c))
            Claims.No_spin cfgs
        in
        let rmrs =
          List.fold_left
            (fun acc c -> bound_max acc (Checks.worst_rmrs ~model c))
            (Claims.Rmr 0) cfgs
        in
        let amortized =
          (* Worst over the analyzed processes, componentwise: the claim
             must hold for whichever process pays the most. *)
          List.fold_left
            (fun acc (pid, cfg) ->
              let r = Amortized.analyze ~ext_mut:(ext_mut_for pid) cfg in
              {
                Amortized.cold = bound_max acc.Amortized.cold r.Amortized.cold;
                steady = bound_max acc.Amortized.steady r.Amortized.steady;
                refills = max acc.Amortized.refills r.Amortized.refills;
                footprint =
                  List.sort_uniq compare
                    (acc.Amortized.footprint @ r.Amortized.footprint);
              })
            {
              Amortized.cold = Claims.Rmr 0;
              steady = Claims.Rmr 0;
              refills = 0;
              footprint = [];
            }
            pid_cfgs
        in
        let amortized_observed =
          (* Abortable/Recoverable flavors are checked as worst-path
             (cold-cache) bounds until abort/crash-recover semantics land
             in the DSL; Amortized proper gets the cache-fixpoint bound. *)
          match claim.Claims.cc_amortized with
          | Claims.Amortized _ ->
            { Claims.steady = amortized.Amortized.steady;
              refills = amortized.Amortized.refills }
          | Claims.Abortable _ | Claims.Recoverable _ ->
            { Claims.steady = amortized.Amortized.cold;
              refills = amortized.Amortized.refills }
        in
        let violations =
          List.concat
            [
              (if complete then []
               else
                 [ "incomplete: fuel exhausted before the unfolding closed" ]);
              List.filter_map
                (fun c ->
                  (* Plain reads and writes are implicitly allowed: every
                     primitive class subsumes them, and the interesting
                     violation is smuggling in a *stronger* class than
                     declared. *)
                  if c = Op.Reads_writes || List.mem c entry.primitives then
                    None
                  else
                    Some
                      (Printf.sprintf
                         "primitive-class: uses %s primitives, declared %s"
                         (class_name c)
                         (String.concat "+"
                            (List.map class_name entry.primitives))))
                classes;
              (if Claims.spin_leq spin claim.Claims.spin then []
               else
                 [
                   Printf.sprintf "local-spin: observed %s spin, claimed %s"
                     (Claims.spin_name spin)
                     (Claims.spin_name claim.Claims.spin);
                 ]);
              (if Claims.bound_leq rmrs claim.Claims.dsm_rmrs then []
               else
                 [
                   Printf.sprintf
                     "rmr-bound: observed worst-case %s RMRs, claimed %s"
                     (Claims.bound_name rmrs)
                     (Claims.bound_name claim.Claims.dsm_rmrs);
                 ]);
              (if
                 Claims.amortized_leq amortized_observed
                   (Claims.amortized_of claim.Claims.cc_amortized)
               then []
               else
                 [
                   Printf.sprintf
                     "amortized: observed %s per call under any CC \
                      protocol, claimed %s"
                     (Claims.amortized_name amortized_observed)
                     (Claims.cc_amortized_name claim.Claims.cc_amortized);
                 ]);
            ]
        in
        {
          call = call.label;
          pids = List.length call.pids;
          nodes;
          cycles;
          stuck;
          complete;
          classes;
          spin;
          rmrs;
          amortized;
          violations;
        })
      call_cfgs
  in
  let writer_violations =
    List.filter_map
      (fun base ->
        let offenders =
          Addr_map.fold
            (fun a ws acc ->
              if base_name entry.layout a = base && List.length ws > 1 then
                (a, ws) :: acc
              else acc)
            writers []
        in
        match offenders with
        | [] -> None
        | (a, ws) :: _ ->
          Some
            (Printf.sprintf
               "write-ownership: %s declared single-writer but %s is written \
                by processes %s"
               base
               (Var.layout_name entry.layout a)
               (String.concat "," (List.map string_of_int ws))))
      entry.claims.Claims.single_writer
  in
  let ok =
    writer_violations = [] && List.for_all (fun c -> c.violations = []) calls
  in
  { entry; calls; writer_violations; ok }

let run_all ?fuel ?unroll entries = List.map (run ?fuel ?unroll) entries

let all_ok reports = List.for_all (fun r -> r.ok) reports

let violations r =
  List.concat_map (fun c -> List.map (fun v -> c.call ^ ": " ^ v) c.violations) r.calls
  @ r.writer_violations
