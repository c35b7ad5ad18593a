(* Observability layer: traces are deterministic, never perturb the run
   they observe, and their derived metrics agree with the scenario's own
   accounting. *)

open Smr
open Test_util

let alg name = Option.get (Core.Experiment.find_algorithm name)

(* Run one phased scenario with a fresh trace attached; return both. *)
let traced ?(model = `Dsm) ?(n = 4) name =
  let m = alg name in
  let module A = (val m : Core.Signaling.POLLING) in
  let tr = Obs.Trace.create () in
  let cfg = Core.Experiment.config_for m ~n in
  let o = Core.Scenario.run_phased (module A) ~model ~cfg ~tracer:tr () in
  (tr, o)

let untraced ?(model = `Dsm) ?(n = 4) name =
  let m = alg name in
  let module A = (val m : Core.Signaling.POLLING) in
  let cfg = Core.Experiment.config_for m ~n in
  Core.Scenario.run_phased (module A) ~model ~cfg ()

(* --- acceptance: metrics agree with the scenario's accounting --- *)

let test_rmr_total_matches_outcome () =
  List.iter
    (fun (name, model, tag) ->
      let tr, o = traced ~model name in
      let total =
        Obs.Metrics.total (Obs.Trace.metrics tr) "rmr_total"
      in
      check_int
        (Printf.sprintf "%s/%s: sum of rmr_total over labels = total_rmrs"
           name tag)
        o.Core.Scenario.total_rmrs (int_of_float total))
    [ ("cc-flag", `Dsm, "dsm"); ("cc-flag", `Cc_wt, "cc-wt");
      ("dsm-broadcast", `Dsm, "dsm"); ("dsm-queue", `Cc_wb, "cc-wb") ]

let test_messages_total_matches_outcome () =
  let tr, o = traced ~model:`Cc_wt "cc-flag" in
  check_int "sum of messages_total = total_messages"
    o.Core.Scenario.total_messages
    (int_of_float (Obs.Metrics.total (Obs.Trace.metrics tr) "messages_total"))

(* --- acceptance: observation never perturbs the run --- *)

let test_tracing_does_not_perturb () =
  List.iter
    (fun (name, model) ->
      let _, o = traced ~model name in
      let o' = untraced ~model name in
      check_int "total_rmrs unchanged" o'.Core.Scenario.total_rmrs
        o.Core.Scenario.total_rmrs;
      check_int "total_messages unchanged" o'.Core.Scenario.total_messages
        o.Core.Scenario.total_messages;
      check_true "identical step-level history"
        (Sim.steps o.Core.Scenario.sim = Sim.steps o'.Core.Scenario.sim);
      check_true "no violations introduced"
        (o.Core.Scenario.violations = o'.Core.Scenario.violations))
    [ ("cc-flag", `Dsm); ("cc-flag", `Cc_wt); ("dsm-broadcast", `Dsm) ]

(* --- golden: the JSONL stream is pinned byte-for-byte --- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_chrome_edge_goldens () =
  (* Fixtures written by gen.exe — regenerate after an intentional schema
     change.  Edge cases: the empty stream, a single event (exactly its
     own track metadata, no stray lanes), and two pids sharing one tick
     (emission order preserved), for both the machine tracks and the
     flat-path cells track group. *)
  Alcotest.(check string) "empty stream renders a loadable document"
    (read_file "golden/chrome_empty.json")
    (Obs.Sink_chrome.to_string []);
  let single =
    [ Obs.Event.Op_step
        { t = 1; pid = 0; kind = "write"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = true; rmr = true;
          messages = 1; model = "cc-wt"; call_seq = 0 } ]
  in
  Alcotest.(check string) "single event, single lane"
    (read_file "golden/chrome_single.json")
    (Obs.Sink_chrome.to_string single);
  let same_tick =
    [ Obs.Event.Op_step
        { t = 3; pid = 0; kind = "write"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = true; rmr = true;
          messages = 1; model = "cc-wt"; call_seq = 0 };
      Obs.Event.Op_step
        { t = 3; pid = 1; kind = "read"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = false;
          rmr = false; messages = 0; model = "cc-wt"; call_seq = 2 } ]
  in
  Alcotest.(check string) "two pids at one tick keep emission order"
    (read_file "golden/chrome_two_pids_same_tick.json")
    (Obs.Sink_chrome.to_string same_tick);
  Alcotest.(check string) "cells track group (flat-path export)"
    (read_file "golden/chrome_cells.json")
    (Obs.Sink_chrome.cells_to_string
       ~cell_name:(Printf.sprintf "B (a%d)")
       [ { Obs.Sink_chrome.ce_t = 2; ce_pid = 0; ce_addr = 0;
           ce_action = "invalidate"; ce_messages = 3 };
         { Obs.Sink_chrome.ce_t = 2; ce_pid = 1; ce_addr = 1;
           ce_action = "fetch"; ce_messages = 1 };
         { Obs.Sink_chrome.ce_t = 5; ce_pid = 2; ce_addr = 0;
           ce_action = "roundtrip"; ce_messages = 1 } ]);
  (* And the cells sink on the degenerate inputs. *)
  check_true "empty cells document still parses as a trace doc"
    (String.length (Obs.Sink_chrome.cells_to_string []) > 0)

(* The fixture [file] holds [sink] of the traced phased run of [name]. *)
let check_golden file ~model ~n name sink =
  let tr, _ = traced ~model ~n name in
  Alcotest.(check string) (file ^ " byte-identical")
    (read_file ("golden/" ^ file))
    (sink (Obs.Trace.events tr))

let test_jsonl_golden () =
  (* Must match `separation trace -a cc-flag -n 4 --format jsonl` (CI
     diffs the CLI output against the same fixture).  Regenerate with
     `dune exec test/golden/gen.exe` after an intentional schema change. *)
  check_golden "trace_cc_flag.jsonl" ~model:`Dsm ~n:4 "cc-flag"
    Obs.Sink_jsonl.to_string

let test_cc_trace_goldens () =
  (* The CC cost model's cache events, interleaved with the machine's at
     each step's tick: `trace -a cas-register -n 4 -m cc-lfcu --format
     jsonl` (fetch, update) and `trace -a cc-flag -n 8 -m cc-wb --format
     chrome` (fetch, invalidate).  CI diffs the CLI output against both. *)
  check_golden "trace_cas_register_lfcu.jsonl" ~model:`Cc_lfcu ~n:4
    "cas-register" Obs.Sink_jsonl.to_string;
  check_golden "trace_cc_flag_wb.chrome.json" ~model:`Cc_wb ~n:8 "cc-flag"
    Obs.Sink_chrome.to_string

(* --- schema coverage per instrumented layer --- *)

let count_by pred tr = List.length (List.filter pred (Obs.Trace.events tr))

let test_cc_emits_cache_events () =
  let tr, _ = traced ~model:`Cc_wt "cc-flag" in
  let caches =
    count_by (function Obs.Event.Cache _ -> true | _ -> false) tr
  in
  check_true "write-through bus run emits coherence events" (caches > 0);
  check_true "coherence_messages_total accumulated"
    (Obs.Metrics.total (Obs.Trace.metrics tr) "coherence_messages_total" > 0.);
  (* DSM has no coherence traffic to report. *)
  let tr', _ = traced ~model:`Dsm "cc-flag" in
  check_int "dsm run emits no cache events" 0
    (count_by (function Obs.Event.Cache _ -> true | _ -> false) tr')

let test_call_events_balanced () =
  let tr, o = traced ~model:`Dsm "cc-flag" in
  let begins =
    count_by (function Obs.Event.Call_begin _ -> true | _ -> false) tr
  and ends =
    count_by (function Obs.Event.Call_end _ -> true | _ -> false) tr
  and crashes =
    count_by (function Obs.Event.Call_crash _ -> true | _ -> false) tr
  in
  check_int "every call that begins ends (crash-free run)" begins
    (ends + crashes);
  check_int "no crashes in a phased run" 0 crashes;
  check_int "one call record per begin event" begins
    (List.length (Sim.calls o.Core.Scenario.sim))

let test_adversary_traced () =
  let m = alg "cc-flag" in
  let module A = (val m : Core.Signaling.POLLING) in
  let tr = Obs.Trace.create () in
  let r = Core.Adversary.run (module A) ~n:8 ~tracer:tr ~max_rounds:6 () in
  check_false "construction ran clean" r.Core.Adversary.spec_violated;
  check_true "adversary decisions recorded"
    (count_by (function Obs.Event.Adversary _ -> true | _ -> false) tr > 0);
  check_true "decision counters accumulated"
    (Obs.Metrics.total (Obs.Trace.metrics tr) "adversary_decisions_total" > 0.);
  (* Erasure replays re-execute surviving steps on a silent machine: the
     trace keeps the live (pre-erasure) stream and gains no duplicates,
     so it can only hold at least as many op events as surviving steps. *)
  check_true "no duplicate op events from replay"
    (count_by (function Obs.Event.Op_step _ -> true | _ -> false) tr
    >= List.length (Sim.steps r.Core.Adversary.final_sim))

(* --- only a live machine emits --- *)

let test_erase_replay_is_silent model () =
  (* Erasing a process that has stepped replays the history on a
     tracerless machine: the CC model re-bills every surviving step --
     the fetches and the signal's write to the waiters' copies -- yet
     neither an event nor a coherence message reaches the trace. *)
  let name = Core.Scenario.model_tag_name model in
  let m = alg "cc-flag" in
  let module A = (val m : Core.Signaling.POLLING) in
  let n = 4 in
  let cfg = Core.Experiment.config_for m ~n in
  let ctx = Var.Ctx.create () in
  let inst = Core.Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let tr = Obs.Trace.create () in
  let sim =
    Sim.with_tracer
      (Sim.create ~model:(Core.Scenario.make_model ~n layout model) ~layout ~n)
      (Some tr)
  in
  let call sim (p, label, program) =
    fst (Sim.run_call sim p ~label (program p))
  in
  let poll p = (p, Core.Signaling.poll_label, inst.Core.Signaling.i_poll)
  and signal p = (p, Core.Signaling.signal_label, inst.Core.Signaling.i_signal) in
  let sim =
    List.fold_left call sim [ poll 1; poll 2; signal 0; poll 1; poll 2 ]
  in
  check_true "the live steps emitted cache events"
    (count_by (function Obs.Event.Cache _ -> true | _ -> false) tr > 0);
  check_true "the signal's write reached the waiters' copies"
    (count_by
       (function
         | Obs.Event.Cache { action = "invalidate" | "update"; copies; _ } ->
           copies > 0
         | _ -> false)
       tr
    > 0);
  let coherence () =
    Obs.Metrics.total (Obs.Trace.metrics tr) "coherence_messages_total"
  in
  let events = Obs.Trace.length tr and messages = coherence () in
  check_true "the live steps sent coherence messages" (messages > 0.);
  let erased = Sim.erase sim [ 2 ] in
  check_int "the victim's steps are gone" 0 (Sim.step_count erased 2);
  check_true ("the replay re-billed the survivors under " ^ name)
    (Sim.total_messages erased < Sim.total_messages sim);
  check_int "erasure adds no event" events (Obs.Trace.length tr);
  check_true "coherence_messages_total unchanged" (coherence () = messages);
  check_true "the erased machine keeps the tracer"
    (match Sim.tracer erased with Some t -> t == tr | None -> false)

let test_disabled_is_silent () =
  let o = untraced "cc-flag" in
  check_true "untraced sim holds no tracer"
    (Sim.tracer o.Core.Scenario.sim = None)

let suite =
  [
    case "rmr_total sums to outcome total_rmrs" test_rmr_total_matches_outcome;
    case "messages_total sums to outcome total_messages"
      test_messages_total_matches_outcome;
    case "tracing does not perturb the run" test_tracing_does_not_perturb;
    case "jsonl golden fixture" test_jsonl_golden;
    case "cc trace golden fixtures" test_cc_trace_goldens;
    case "chrome sink edge-case goldens" test_chrome_edge_goldens;
    case "cc models emit cache events, dsm none" test_cc_emits_cache_events;
    case "call begin/end events balanced" test_call_events_balanced;
    case "adversary decisions traced, replays silent" test_adversary_traced;
    case "erasure replay under cc-wt is silent"
      (test_erase_replay_is_silent `Cc_wt);
    case "erasure replay under cc-wb is silent"
      (test_erase_replay_is_silent `Cc_wb);
    case "erasure replay under cc-lfcu is silent"
      (test_erase_replay_is_silent `Cc_lfcu);
    case "disabled tracing is silent" test_disabled_is_silent;
  ]
