(* Tests for the static analyzer: CFG extraction, the six claim checks
   (primitive class, spin, DSM RMRs, amortized CC RMRs, write ownership,
   independence), the cache-lattice laws, the shipped-catalog run, the
   seeded mutants, the explorer's static-independence hook, and the
   Op.commute differential check. *)

open Smr
open Test_util

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let int_prog p = Program.map (fun () -> 0) p

(* A one-shared, one-local layout plus the two cells, for hand-built
   programs. *)
let tiny () =
  let ctx = Var.Ctx.create () in
  let shared = Var.Ctx.int ctx ~name:"S" ~home:Var.Shared 0 in
  let local = Var.Ctx.int ctx ~name:"L" ~home:(Var.Module 0) 0 in
  (Var.Ctx.freeze ctx, shared, local)

let extract ?(exclusive = fun _ -> false) ?fuel program =
  Analysis.Cfg.extract ?fuel ~values:[ 0; 1 ] ~exclusive ~pid:0 program

(* --- CFG extraction --- *)

let test_cfg_straight_line () =
  let open Program.Syntax in
  let _, shared, local = tiny () in
  let prog =
    int_prog
      (let* v = Program.read shared in
       Program.write local (v + 1))
  in
  let cfg = extract prog in
  check_true "complete" cfg.Analysis.Cfg.complete;
  check_int "no cycles" 0 (List.length cfg.Analysis.Cfg.cycles);
  check_int "two invocations, branching only on the read" 3
    (Analysis.Cfg.size cfg);
  check_int "no stuck leaves" 0 cfg.Analysis.Cfg.stuck

let test_cfg_await_is_a_cycle () =
  let _, shared, _ = tiny () in
  let cfg = extract (int_prog (Program.await shared (fun v -> v = 1))) in
  check_true "complete" cfg.Analysis.Cfg.complete;
  check_true "spin loop found" (cfg.Analysis.Cfg.cycles <> [])

let test_cfg_fuel_cut () =
  let open Program.Syntax in
  let _, shared, local = tiny () in
  let prog =
    int_prog
      (let* v = Program.read shared in
       let* w = Program.read local in
       Program.write local (v + w))
  in
  let cfg = extract ~fuel:1 prog in
  check_false "fuel exhaustion reported" cfg.Analysis.Cfg.complete

let test_cfg_exclusive_pinning () =
  (* The register-once-then-spin pattern: a process writes its own cell and
     then awaits a value it already stored.  With ownership tracking the
     await resolves immediately; without it the extractor must assume the
     cell can hold anything and reports a spin loop. *)
  let open Program.Syntax in
  let _, _, local = tiny () in
  let prog =
    int_prog
      (let* () = Program.write local 1 in
       Program.await local (fun v -> v = 1))
  in
  let pinned = extract ~exclusive:(fun _ -> true) prog in
  check_int "owned cell: await resolves statically" 0
    (List.length pinned.Analysis.Cfg.cycles);
  let blind = extract prog in
  check_true "unowned cell: await is a spin loop"
    (blind.Analysis.Cfg.cycles <> [])

(* --- checks --- *)

let test_checks_spin_and_rmrs () =
  let open Program.Syntax in
  let layout, shared, local = tiny () in
  let model = Cost_model.dsm layout in
  let once =
    extract
      (int_prog
         (let* v = Program.read shared in
          Program.write local v))
  in
  check_true "one remote access"
    (Analysis.Checks.worst_rmrs ~model once = Analysis.Claims.Rmr 1);
  check_true "no spin"
    (Analysis.Checks.observed_spin ~layout once = Analysis.Claims.No_spin);
  let local_spin = extract (int_prog (Program.await local (fun v -> v = 1))) in
  check_true "local spin"
    (Analysis.Checks.observed_spin ~layout local_spin
    = Analysis.Claims.Local_spin);
  check_true "local spin costs nothing"
    (Analysis.Checks.worst_rmrs ~model local_spin = Analysis.Claims.Rmr 0);
  let remote_spin =
    extract (int_prog (Program.await shared (fun v -> v = 1)))
  in
  check_true "remote spin"
    (Analysis.Checks.observed_spin ~layout remote_spin
    = Analysis.Claims.Remote_spin);
  check_true "remote spin is unbounded"
    (Analysis.Checks.worst_rmrs ~model remote_spin = Analysis.Claims.Unbounded)

(* --- lint on hand-built entries --- *)

let entry_of ~claims ?(primitives = [ Op.Reads_writes ]) ~layout calls =
  Analysis.Registry.entry ~name:"hand-built" ~n:2 ~layout ~primitives ~claims
    calls

let test_lint_catches_false_rmr_claim () =
  let layout, shared, _ = tiny () in
  let claims =
    Analysis.Claims.
      { single_writer = [];
        const_writes = [];
        calls = [ ("touch", { spin = No_spin; dsm_rmrs = Rmr 0; cc_amortized = Amortized { steady = Unbounded; refills = 64 } }) ] }
  in
  let e =
    entry_of ~claims ~layout
      [ { Analysis.Registry.label = "touch";
          pids = [ 0 ];
          program = (fun _ -> int_prog (Program.write shared 1)) } ]
  in
  let r = Analysis.Lint.run e in
  check_false "report not ok" r.Analysis.Lint.ok;
  check_true "rmr-bound violation named"
    (List.exists (fun v -> contains v "rmr-bound") (Analysis.Lint.violations r))

let test_lint_catches_false_spin_claim () =
  let layout, shared, _ = tiny () in
  let claims =
    Analysis.Claims.
      { single_writer = [];
        const_writes = [];
        calls = [ ("wait", { spin = Local_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 64 } }) ] }
  in
  let e =
    entry_of ~claims ~layout
      [ { Analysis.Registry.label = "wait";
          pids = [ 1 ];
          program = (fun _ -> int_prog (Program.await shared (fun v -> v = 1)))
        } ]
  in
  let r = Analysis.Lint.run e in
  check_false "report not ok" r.Analysis.Lint.ok;
  check_true "local-spin violation named"
    (List.exists
       (fun v -> contains v "local-spin")
       (Analysis.Lint.violations r))

let test_lint_catches_false_ownership_claim () =
  let layout, shared, _ = tiny () in
  let claims =
    Analysis.Claims.
      { single_writer = [ "S" ];
        const_writes = [];
        calls = [ ("touch", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Unbounded; refills = 64 } }) ] }
  in
  let e =
    entry_of ~claims ~layout
      [ { Analysis.Registry.label = "touch";
          pids = [ 0; 1 ];
          program = (fun p -> int_prog (Program.write shared p)) } ]
  in
  let r = Analysis.Lint.run e in
  check_false "report not ok" r.Analysis.Lint.ok;
  check_true "write-ownership violation named"
    (List.exists
       (fun v -> contains v "write-ownership")
       (Analysis.Lint.violations r))

(* --- the shipped catalog --- *)

let test_catalog_all_shipped_pass () =
  let reports = Core.Lint_catalog.run () in
  List.iter
    (fun (r : Analysis.Lint.report) ->
      check_true
        (Printf.sprintf "%s clean (%s)" r.Analysis.Lint.entry.name
           (String.concat "; " (Analysis.Lint.violations r)))
        r.Analysis.Lint.ok)
    reports;
  check_true "catalog has the full algorithm roster"
    (List.length reports >= 20)

let test_catalog_mutants_fail_exactly () =
  let reports = Core.Lint_catalog.run ~mutants:true () in
  let failing =
    List.filter_map
      (fun (r : Analysis.Lint.report) ->
        if r.Analysis.Lint.ok then None
        else Some (r.Analysis.Lint.entry.name, Analysis.Lint.violations r))
      reports
  in
  check_int "exactly the four seeded mutants fail" 4 (List.length failing);
  let violations_of name =
    match List.assoc_opt name failing with
    | Some vs -> String.concat "; " vs
    | None -> Alcotest.failf "mutant %s did not fail" name
  in
  check_true "remote-spin mutant flagged by the local-spin check"
    (contains (violations_of Core.Lint_mutants.remote_spin_name) "local-spin");
  check_true "cas mutant flagged by the primitive-class check"
    (contains (violations_of Core.Lint_mutants.cas_flag_name) "primitive-class");
  check_true "hidden-scan mutant flagged by the amortized check"
    (contains
       (violations_of Core.Lint_mutants.amortized_scan_name)
       "amortized");
  check_true "false const-write mutant flagged by the independence check"
    (contains
       (violations_of Core.Lint_mutants.indep_fact_name)
       "independence")

(* --- the amortized cache lattice --- *)

let test_absdomain_lattice_laws () =
  let open Analysis.Absdomain in
  (* a state holding exactly these cells: read them from the cold cache *)
  let holding cells =
    List.fold_left (fun st a -> snd (transfer st (Op.Read a))) top cells
  in
  let states = List.map holding [ []; [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
  List.iter
    (fun a ->
      check_true "join idempotent" (equal (join a a) a);
      check_true "leq reflexive" (leq a a);
      check_true "top is the top" (leq a top);
      List.iter
        (fun b ->
          check_true "join commutative" (equal (join a b) (join b a));
          check_true "join is an upper bound"
            (leq a (join a b) && leq b (join a b)))
        states)
    states;
  (* transfer is monotone in the state argument: a better-cached entry
     state never costs more and never leaves a worse cache — checked over
     every op shape and two-cell state pair (the property the
     steady-state fixpoint iteration relies on) *)
  let invs =
    [ Op.Read 0; Op.Write (0, 1); Op.Cas (0, 0, 1); Op.Ll 0; Op.Sc (0, 1);
      Op.Faa (0, 1); Op.Fas (0, 1); Op.Tas 0; Op.Read 1 ]
  in
  List.iter
    (fun inv ->
      List.iter
        (fun s1 ->
          List.iter
            (fun s2 ->
              if leq s1 s2 then begin
                let c1, p1 = transfer s1 inv in
                let c2, p2 = transfer s2 inv in
                check_true "transfer cost monotone" (c1 <= c2);
                check_true "transfer post-state monotone" (leq p1 p2)
              end)
            states)
        states)
    invs;
  (* the worst case of [Cc.decide] over every protocol and outcome: a read
     bills iff the cell is not held, every mutation bills, and every access
     leaves the cell held *)
  List.iter
    (fun inv ->
      let cell = holding [ Op.addr_of inv ] in
      List.iter
        (fun s ->
          let c, p = transfer s inv in
          check_int "worst-case bill"
            (if Op.is_read_only inv && leq s cell then 0 else 1)
            c;
          check_true "the access leaves the cell held" (leq p cell))
        states)
    invs

let amortized_of_call (r : Analysis.Lint.report) label =
  (List.find (fun (c : Analysis.Lint.call_report) -> c.Analysis.Lint.call = label)
     r.Analysis.Lint.calls)
    .Analysis.Lint.amortized

let catalog_reports names =
  let reports = Core.Lint_catalog.run ~names () in
  fun name ->
    List.find
      (fun (r : Analysis.Lint.report) ->
        r.Analysis.Lint.entry.Analysis.Registry.name = name)
      reports

let test_amortized_proofs () =
  (* The paper's CC-side headline, proven statically: cc-flag's Signal()
     costs one RMR per call under any protocol (and its Poll() is free at
     the fixpoint, re-billed once per external signal), while
     dsm-broadcast's Signal() pays n cells every single call. *)
  let report = catalog_reports [ "cc-flag"; "dsm-broadcast"; "dsm-queue" ] in
  let s = amortized_of_call (report "cc-flag") "signal" in
  check_true "cc-flag Signal() proves 1 steady RMR"
    (s.Analysis.Amortized.steady = Analysis.Claims.Rmr 1);
  check_int "cc-flag Signal() needs no refills" 0 s.Analysis.Amortized.refills;
  check_true "cc-flag Signal() cold cost is also 1"
    (s.Analysis.Amortized.cold = Analysis.Claims.Rmr 1);
  let p = amortized_of_call (report "cc-flag") "poll" in
  check_true "cc-flag Poll() free at the cache fixpoint"
    (p.Analysis.Amortized.steady = Analysis.Claims.Rmr 0);
  check_int "cc-flag Poll() re-billed once per external signal" 1
    p.Analysis.Amortized.refills;
  let b = amortized_of_call (report "dsm-broadcast") "signal" in
  check_true "dsm-broadcast Signal() pays n RMRs every call (n = 4)"
    (b.Analysis.Amortized.steady = Analysis.Claims.Rmr 4);
  check_int "dsm-broadcast Signal() writes only, no refills" 0
    b.Analysis.Amortized.refills;
  let q = amortized_of_call (report "dsm-queue") "signal" in
  check_true "dsm-queue Signal() has no per-call steady bound (spins)"
    (q.Analysis.Amortized.steady = Analysis.Claims.Unbounded)

let test_lint_catches_false_amortized_claim () =
  (* A call that always reads a cell someone else mutates cannot claim a
     zero-refill steady state. *)
  let layout, shared, _ = tiny () in
  let claims =
    Analysis.Claims.
      { single_writer = [];
        const_writes = [];
        calls =
          [ ("touch",
             { spin = No_spin;
               dsm_rmrs = Rmr 1;
               cc_amortized = Amortized { steady = Rmr 0; refills = 0 } });
            ("dirty",
             { spin = No_spin;
               dsm_rmrs = Rmr 1;
               cc_amortized = Amortized { steady = Rmr 1; refills = 0 } }) ] }
  in
  let e =
    entry_of ~claims ~layout
      [ { Analysis.Registry.label = "touch";
          pids = [ 0 ];
          program = (fun _ -> Program.read shared) };
        { Analysis.Registry.label = "dirty";
          pids = [ 1 ];
          program = (fun _ -> int_prog (Program.write shared 1)) } ]
  in
  let r = Analysis.Lint.run e in
  check_false "report not ok" r.Analysis.Lint.ok;
  check_true "amortized violation named"
    (List.exists
       (fun v -> contains v "amortized")
       (Analysis.Lint.violations r))

(* --- static independence facts --- *)

let test_independence_facts_sound () =
  let report = catalog_reports [ "cc-flag"; "dsm-broadcast" ] in
  List.iter
    (fun name ->
      let r = report name in
      let facts = r.Analysis.Lint.facts in
      check_true
        (name ^ " has const-write facts")
        (facts.Analysis.Independence.const_writes <> []);
      check_true
        (name ^ " facts validated over real memory")
        (r.Analysis.Lint.indep_checked > 0);
      check_int (name ^ " no refutations") 0
        (List.length r.Analysis.Lint.indep_violations);
      List.iter
        (fun (a, v) ->
          let w = Op.Write (a, v) in
          check_true "const-write pair commutes under the facts"
            (Analysis.Independence.commute facts w w);
          check_false "Op.commute alone refuses same-cell writes"
            (Op.commute w w);
          (* conservativity: the extension only ever adds pairs *)
          check_true "extension preserves Op.commute"
            (Analysis.Independence.commute facts (Op.Read a) (Op.Read a)))
        facts.Analysis.Independence.const_writes)
    [ "cc-flag"; "dsm-broadcast" ]

let test_explore_static_facts_prune () =
  (* Two signalers racing Write(B, true): Op.commute calls that a
     conflict, the const-write fact proves it independent.  The extended
     relation must prune states without touching the verdict. *)
  let n = 4 and polls = 2 in
  let ctx = Var.Ctx.create () in
  let cfg = Core.Signaling.config ~n ~waiters:[ 2; 3 ] ~signalers:[ 0; 1 ] in
  let inst = Core.Signaling.instantiate (module Core.Cc_flag) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    List.map
      (fun s ->
        ( s,
          Explore.of_list
            [ (Core.Signaling.signal_label, inst.Core.Signaling.i_signal s) ]
        ))
      cfg.Core.Signaling.signalers
    @ List.map
        (fun w ->
          ( w,
            Explore.repeat ~limit:polls
              ~until:(fun r -> r = 1)
              (Core.Signaling.poll_label, inst.Core.Signaling.i_poll w) ))
        cfg.Core.Signaling.waiters
  in
  let values = Analysis.Lint.value_domain ~n ~layout in
  let cfg_of pid prog =
    (pid, Analysis.Cfg.extract ~values ~exclusive:(fun _ -> false) ~pid prog)
  in
  let facts =
    Analysis.Independence.of_cfgs
      (List.map (fun s -> cfg_of s (inst.Core.Signaling.i_signal s))
         cfg.Core.Signaling.signalers
      @ List.map (fun w -> cfg_of w (inst.Core.Signaling.i_poll w))
          cfg.Core.Signaling.waiters)
  in
  check_true "cc-flag const-write fact computed"
    (facts.Analysis.Independence.const_writes <> []);
  let run ?commute () =
    Explore.check ?commute ~layout ~model:(Cost_model.dsm layout) ~n ~scripts
      ~property:Core.Signaling.polling_ok ()
  in
  let plain = run () in
  let extended = run ~commute:(Analysis.Independence.commute facts) () in
  check_true "both complete" (plain.Explore.complete && extended.Explore.complete);
  check_true "verdict unchanged"
    ((plain.Explore.violation = None) = (extended.Explore.violation = None));
  check_true "no violation on cc-flag" (extended.Explore.violation = None);
  check_true "static facts prune states"
    (extended.Explore.stats.Explore.states
    < plain.Explore.stats.Explore.states)

(* --- the Op.commute differential check --- *)

let test_commute_exhaustive_and_sound () =
  let r = Analysis.Commute_check.run () in
  check_int "all 64 ordered kind pairs covered" 64
    r.Analysis.Commute_check.kind_pairs;
  check_int "no soundness failures" 0
    (List.length r.Analysis.Commute_check.failures);
  check_true "scenario count matches the enumeration"
    (r.Analysis.Commute_check.checked
    = r.Analysis.Commute_check.pairs * 4 * 16);
  check_true "some pairs commute, some do not"
    (r.Analysis.Commute_check.commuting > 0
    && r.Analysis.Commute_check.commuting < r.Analysis.Commute_check.checked)

(* --- golden JSON --- *)

let test_lint_golden_json () =
  (* Byte-for-byte pin of `separation lint --json`; regenerate with
     `dune exec test/golden/gen.exe`. *)
  let reports = Core.Lint_catalog.run ~n:4 () in
  let commute = Analysis.Commute_check.run () in
  Alcotest.(check string)
    "golden JSON lint"
    (read_file "golden/lint.json")
    (Core.Results.to_json_many
       [ Core.Lint_catalog.lint_table reports;
         Core.Lint_catalog.commute_table commute ])

let suite =
  [ case "cfg: straight line" test_cfg_straight_line;
    case "cfg: await is a cycle" test_cfg_await_is_a_cycle;
    case "cfg: fuel cut reported" test_cfg_fuel_cut;
    case "cfg: owned-cell pinning" test_cfg_exclusive_pinning;
    case "checks: spin and rmr classification" test_checks_spin_and_rmrs;
    case "lint: false rmr claim fails" test_lint_catches_false_rmr_claim;
    case "lint: false spin claim fails" test_lint_catches_false_spin_claim;
    case "lint: false ownership claim fails"
      test_lint_catches_false_ownership_claim;
    case "catalog: every shipped algorithm passes" test_catalog_all_shipped_pass;
    case "catalog: mutants fail exactly" test_catalog_mutants_fail_exactly;
    case "absdomain: lattice laws and transfer monotonicity"
      test_absdomain_lattice_laws;
    case "amortized: cc-flag 1+0r, dsm-broadcast n, dsm-queue unbounded"
      test_amortized_proofs;
    case "lint: false amortized claim fails"
      test_lint_catches_false_amortized_claim;
    case "independence: facts computed, validated, conservative"
      test_independence_facts_sound;
    case "explore: static facts prune, verdict intact"
      test_explore_static_facts_prune;
    case "commute: exhaustive and sound" test_commute_exhaustive_and_sound;
    case "lint golden JSON" test_lint_golden_json ]
