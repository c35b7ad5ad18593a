open Smr

(* One registry entry for a polling algorithm under the standard
   configuration (process 0 signals, the rest poll). *)
let polling ?fuel ?unroll ~n ~claims (module P : Signaling.POLLING) =
  let ctx = Var.Ctx.create () in
  let cfg = Algorithms.config_for (module P) ~n in
  let t = P.create ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  Analysis.Registry.entry ?fuel ?unroll ~name:P.name ~n ~layout
    ~primitives:P.primitives ~claims
    [ { Analysis.Registry.label = "signal";
        pids = cfg.Signaling.signalers;
        program = (fun p -> Program.of_unit (P.signal t p)) };
      { Analysis.Registry.label = "poll";
        pids = cfg.Signaling.waiters;
        program = (fun p -> Program.of_bool (P.poll t p)) } ]

let blocking ?fuel ?unroll ~n ~claims (module B : Signaling.BLOCKING) =
  let ctx = Var.Ctx.create () in
  let cfg = Algorithms.config_for_blocking ~n in
  let t = B.create ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  Analysis.Registry.entry ?fuel ?unroll ~name:B.name ~n ~layout
    ~primitives:B.primitives ~claims
    [ { Analysis.Registry.label = "signal";
        pids = cfg.Signaling.signalers;
        program = (fun p -> Program.of_unit (B.signal t p)) };
      { Analysis.Registry.label = "wait";
        pids = cfg.Signaling.waiters;
        program = (fun p -> Program.of_unit (B.wait t p)) } ]

let lock ?fuel ?unroll ~n ~claims (module L : Sync.Mutex_intf.LOCK) =
  let ctx = Var.Ctx.create () in
  let t = L.create ctx ~n in
  let layout = Var.Ctx.freeze ctx in
  let pids = List.init n (fun i -> i) in
  Analysis.Registry.entry ?fuel ?unroll ~name:L.name ~n ~layout
    ~primitives:L.primitives ~claims
    [ { Analysis.Registry.label = "acquire";
        pids;
        program = (fun p -> Program.of_unit (L.acquire t p)) };
      { Analysis.Registry.label = "release";
        pids;
        program = (fun p -> Program.of_unit (L.release t p)) } ]

let register ?(n = 4) () =
  let r = Analysis.Registry.register in
  r (polling ~n ~claims:(Cc_flag.claims ~n) (module Cc_flag));
  r (polling ~n ~claims:(Dsm_broadcast.claims ~n) (module Dsm_broadcast));
  r (polling ~n ~claims:(Dsm_fixed_waiters.claims ~n) (module Dsm_fixed_waiters));
  r
    (polling ~n
       ~claims:(Dsm_fixed_terminating.claims ~n)
       (module Dsm_fixed_terminating));
  r (polling ~n ~claims:(Dsm_single_waiter.claims ~n) (module Dsm_single_waiter));
  r (polling ~n ~claims:(Dsm_registration.claims ~n) (module Dsm_registration));
  r (polling ~n ~claims:(Dsm_queue.claims ~n) (module Dsm_queue));
  r (polling ~n ~claims:(Cas_register.claims ~n) (module Cas_register));
  r (polling ~n ~claims:(Llsc_register.claims ~n) (module Llsc_register));
  (* Election winners and losers that read the winner's name both reach the
     inner queue signal, so the unfolding is a small multiple of dsm-queue's
     own: give the composition extra node budget. *)
  r
    (polling ~n ~fuel:1_000_000
       ~claims:(Multi_signaler.claims ~inner:(Dsm_queue.claims ~n) ~n)
       (module Algorithms.Queue_multi_signaler));
  (* The lock-transformed registration variants nest a tournament-lock
     passage inside every emulated CAS, so their unfoldings multiply: keep
     them at two processes. *)
  let nt = 2 in
  r
    (polling ~n:nt
       ~claims:(Cas_register.claims ~n:nt)
       (module Cas_register.Transformed));
  r
    (polling ~n:nt
       ~claims:(Llsc_register.claims ~n:nt)
       (module Llsc_register.Transformed));
  (* dsm-leader, mcs and yang-anderson all re-read a cell right after
     awaiting it (or on an infeasible rival-is-myself branch), which at the
     default occurrence threshold folds a spurious back-edge over the
     intervening shared access; one extra unrolling separates the genuine
     spin loop from the straight-line re-read. *)
  r (blocking ~n ~unroll:3 ~claims:(Dsm_leader.claims ~n) (module Dsm_leader));
  let nl = 3 in
  r (lock ~n:nl ~claims:(Sync.Tas_lock.claims ~n:nl) (module Sync.Tas_lock));
  r (lock ~n:nl ~claims:(Sync.Ttas_lock.claims ~n:nl) (module Sync.Ttas_lock));
  r (lock ~n:nl ~claims:(Sync.Ticket_lock.claims ~n:nl) (module Sync.Ticket_lock));
  r
    (lock ~n:nl
       ~claims:(Sync.Anderson_lock.claims ~n:nl)
       (module Sync.Anderson_lock));
  r (lock ~n:nl ~claims:(Sync.Clh_lock.claims ~n:nl) (module Sync.Clh_lock));
  r
    (lock ~n:nl ~unroll:3
       ~claims:(Sync.Mcs_lock.claims ~n:nl)
       (module Sync.Mcs_lock));
  r
    (lock ~n:nl
       ~claims:(Sync.Fischer_lock.claims ~n:nl)
       (Sync.Fischer_lock.with_delay 1));
  r (lock ~n:nl ~claims:(Sync.Bakery_lock.claims ~n:nl) (module Sync.Bakery_lock));
  let ny = 2 in
  r
    (lock ~n:ny ~unroll:3
       ~claims:(Sync.Yang_anderson.claims ~n:ny)
       (module Sync.Yang_anderson));
  Lint_mutants.register ~n

let run ?n ?(mutants = false) ?fuel ?names ?metrics () =
  register ?n ();
  let entries = Analysis.Registry.all ~mutants:true () in
  let entries =
    match names with
    | None -> List.filter (fun e -> mutants || not e.Analysis.Registry.mutant) entries
    | Some names ->
      List.map
        (fun name ->
          match
            List.find_opt (fun e -> e.Analysis.Registry.name = name) entries
          with
          | Some e -> e
          | None -> invalid_arg (Printf.sprintf "lint: unknown algorithm %S" name))
        names
  in
  let lint entry =
    match metrics with
    | None -> Analysis.Lint.run ?fuel entry
    | Some m ->
      Obs.Metrics.time m "lint_entry_seconds"
        ~labels:[ ("algorithm", entry.Analysis.Registry.name) ]
        (fun () -> Analysis.Lint.run ?fuel entry)
  in
  List.map lint entries

let class_tag = function
  | Op.Reads_writes -> "rw"
  | Op.Comparison -> "cmp"
  | Op.Fetch_and_phi -> "fai"

let classes_tag classes = String.concat "+" (List.map class_tag classes)

let lint_table reports =
  let columns =
    [ Results.param "algorithm"; Results.param "call"; Results.param "n";
      Results.measure "pids"; Results.measure "nodes"; Results.measure "cycles";
      Results.measure "stuck"; Results.measure "complete";
      Results.measure "classes"; Results.measure "spin";
      Results.measure "claim_spin"; Results.measure "rmr_worst";
      Results.measure "claim_rmr"; Results.measure "cc_cold";
      Results.measure "cc_amortized"; Results.measure "claim_cc_amortized";
      Results.measure "violations"; Results.measure "ok" ]
  in
  let rows =
    List.concat_map
      (fun (r : Analysis.Lint.report) ->
        let entry = r.Analysis.Lint.entry in
        let call_rows =
          List.map
            (fun (c : Analysis.Lint.call_report) ->
              let claim = Analysis.Claims.call entry.claims c.call in
              let am = c.Analysis.Lint.amortized in
              [ Results.text entry.Analysis.Registry.name;
                Results.text c.call;
                Results.int entry.Analysis.Registry.n;
                Results.int c.pids; Results.int c.nodes; Results.int c.cycles;
                Results.int c.stuck; Results.bool c.complete;
                Results.text (classes_tag c.classes);
                Results.text (Analysis.Claims.spin_name c.spin);
                Results.text (Analysis.Claims.spin_name claim.Analysis.Claims.spin);
                Results.text (Analysis.Claims.bound_name c.rmrs);
                Results.text
                  (Analysis.Claims.bound_name claim.Analysis.Claims.dsm_rmrs);
                Results.text (Analysis.Claims.bound_name am.Analysis.Amortized.cold);
                Results.text
                  (Analysis.Claims.amortized_name
                     { Analysis.Claims.steady = am.Analysis.Amortized.steady;
                       refills = am.Analysis.Amortized.refills });
                Results.text
                  (Analysis.Claims.cc_amortized_name
                     claim.Analysis.Claims.cc_amortized);
                Results.text (String.concat "; " c.violations);
                Results.bool (c.violations = []) ])
            r.Analysis.Lint.calls
        in
        let writer_rows =
          match r.Analysis.Lint.writer_violations with
          | [] -> []
          | vs ->
            [ [ Results.text entry.Analysis.Registry.name;
                Results.text "(writers)";
                Results.int entry.Analysis.Registry.n;
                Results.int 0; Results.int 0; Results.int 0; Results.int 0;
                Results.bool true; Results.text ""; Results.text "";
                Results.text ""; Results.text ""; Results.text "";
                Results.text ""; Results.text ""; Results.text "";
                Results.text (String.concat "; " vs); Results.bool false ] ]
        in
        call_rows @ writer_rows)
      reports
  in
  Results.make ~experiment:"lint" ~part:"claims"
    ~title:"Static lint: paper-claimed properties vs the extracted CFGs"
    ~claim:
      "every shipped algorithm's declared primitive class, spin locality, \
       DSM RMR bound, amortized CC RMR bound and write ownership hold over \
       its response-branching control-flow graph"
    ~columns rows

let commute_table (r : Analysis.Commute_check.result) =
  Results.make ~experiment:"lint" ~part:"commute"
    ~title:"Differential soundness of Op.commute (the POR independence relation)"
    ~claim:
      "whenever Op.commute holds, executing the pair in either order yields \
       identical memory fingerprints and responses (premise of Explore's \
       sleep-set reduction)"
    ~columns:
      [ Results.measure "shape_pairs"; Results.measure "kind_pairs";
        Results.measure "scenarios"; Results.measure "commuting";
        Results.measure "failures"; Results.measure "ok" ]
    [ [ Results.int r.Analysis.Commute_check.pairs;
        Results.int r.Analysis.Commute_check.kind_pairs;
        Results.int r.Analysis.Commute_check.checked;
        Results.int r.Analysis.Commute_check.commuting;
        Results.int (List.length r.Analysis.Commute_check.failures);
        Results.bool (r.Analysis.Commute_check.failures = []) ] ]

let all_ok reports commute =
  Analysis.Lint.all_ok reports
  && commute.Analysis.Commute_check.failures = []
  && commute.Analysis.Commute_check.kind_pairs = 64
