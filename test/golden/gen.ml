(* Regenerates the golden JSON fixtures pinned by test_experiments.ml,
   test_lint.ml, test_trace.ml and test_explore.ml.

   Run from the repository root after an intentional change to the JSON
   format or to the experiment numbers:

     dune exec test/golden/gen.exe

   then review the diff before committing. *)

(* Byte-identical to `separation explore -a ALGO -n N -k K --polls P
   --json`: the search counters, pinned so a change to the explorer that
   moves any of them shows. *)
let explore ~algorithm ~n ~waiters ~polls () =
  let setup =
    { (Core.Exhaustive.setup
         (Option.get (Core.Experiment.find_algorithm algorithm)))
      with
      n;
      waiters;
      polls }
  in
  let prepared = Core.Exhaustive.prepare setup in
  Core.Results.to_json
    (Core.Exhaustive.table setup prepared
       (Core.Exhaustive.search setup prepared))

(* The event stream of `separation trace -a ALGO -n N -m MODEL`, as the
   CLI renders it with [sink]. *)
let trace ~algorithm ~n ~model sink () =
  let m = Option.get (Core.Experiment.find_algorithm algorithm) in
  let module A = (val m : Core.Signaling.POLLING) in
  let tr = Obs.Trace.create () in
  let cfg = Core.Experiment.config_for m ~n in
  let _ = Core.Scenario.run_phased (module A) ~model ~cfg ~tracer:tr () in
  sink (Obs.Trace.events tr)

let fixtures =
  [ ( "test/golden/explore_cc_flag.json",
      explore ~algorithm:"cc-flag" ~n:5 ~waiters:4 ~polls:2 );
    ( "test/golden/explore_dsm_broadcast.json",
      explore ~algorithm:"dsm-broadcast" ~n:4 ~waiters:3 ~polls:3 );
    ( "test/golden/e1_small.json",
      fun () ->
        Core.Results.to_json (Core.E1_cc_flag.table ~ns:[ 2; 4 ] ()) ^ "\n" );
    ( "test/golden/e2_small.json",
      (* The Section 6 adversary over both of its erasure paths: every
         dsm-broadcast erasure succeeds, every dsm-queue chase erasure is
         blocked by F&I visibility. *)
      fun () ->
        Core.Results.to_json (Core.E2_adversary.table ~ns:[ 8; 32 ] ()) ^ "\n"
    );
    ( "test/golden/e4_small.json",
      fun () ->
        Core.Results.to_json (Core.E4_queue_k.table ~n:16 ~ks:[ 1; 2; 4 ] ())
        ^ "\n" );
    ( "test/golden/cc_tables.json",
      (* Byte-identical to `separation tables --json e5 e6 e12`: the tables
         that bill every CC protocol, interconnect and cache capacity, so
         CI can diff the command's raw output against this file. *)
      fun () ->
        Core.Results.to_json_many
          (Core.Runner.tables
             (Core.Runner.run ~jobs:1
                (List.map Core.Experiment_registry.find_exn
                   [ "e5"; "e6"; "e12" ]))) );
    ( "test/golden/lint.json",
      (* Byte-identical to `separation lint --json`, so CI can diff the
         command's raw output against this file. *)
      fun () ->
        let reports = Core.Lint_catalog.run ~n:4 () in
        let commute = Analysis.Commute_check.run () in
        Core.Results.to_json_many
          [ Core.Lint_catalog.lint_table reports;
            Core.Lint_catalog.commute_table commute ] );
    ( "test/golden/trace_cc_flag.jsonl",
      (* Byte-identical to `separation trace -a cc-flag -n 4 --format
         jsonl`, so CI can diff the command's raw output against this
         file; test_trace.ml pins the same bytes from the library side. *)
      trace ~algorithm:"cc-flag" ~n:4 ~model:`Dsm Obs.Sink_jsonl.to_string );
    ( "test/golden/trace_cas_register_lfcu.jsonl",
      (* `separation trace -a cas-register -n 4 -m cc-lfcu --format jsonl`:
         the cache events (fetch, update) the CC cost model emits inside a
         traced step, at the step's tick. *)
      trace ~algorithm:"cas-register" ~n:4 ~model:`Cc_lfcu
        Obs.Sink_jsonl.to_string );
    ( "test/golden/trace_cc_flag_wb.chrome.json",
      (* `separation trace -a cc-flag -n 8 -m cc-wb --format chrome`:
         write-back fetch and invalidate events on the machine lanes. *)
      trace ~algorithm:"cc-flag" ~n:8 ~model:`Cc_wb Obs.Sink_chrome.to_string
    );
    (* Chrome sink edge cases, pinned by test_trace.ml: an empty stream
       still renders a loadable document; a single event carries exactly
       its own track metadata; simultaneous events from two pids keep
       emission order at one tick. *)
    ("test/golden/chrome_empty.json", fun () -> Obs.Sink_chrome.to_string []);
    ( "test/golden/chrome_single.json",
      fun () ->
        Obs.Sink_chrome.to_string
          [ Obs.Event.Op_step
              { t = 1; pid = 0; kind = "write"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = true;
                rmr = true; messages = 1; model = "cc-wt"; call_seq = 0 } ] );
    ( "test/golden/chrome_two_pids_same_tick.json",
      fun () ->
        Obs.Sink_chrome.to_string
          [ Obs.Event.Op_step
              { t = 3; pid = 0; kind = "write"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = true;
                rmr = true; messages = 1; model = "cc-wt"; call_seq = 0 };
            Obs.Event.Op_step
              { t = 3; pid = 1; kind = "read"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = false;
                rmr = false; messages = 0; model = "cc-wt"; call_seq = 2 } ] );
    ( "test/golden/chrome_cells.json",
      (* The flat-path cells track group: same-tick traffic from two pids
         on two lanes, plus a lone roundtrip — the shape `separation
         profile --chrome-out` exports. *)
      fun () ->
        Obs.Sink_chrome.cells_to_string
          ~cell_name:(Printf.sprintf "B (a%d)")
          [ { Obs.Sink_chrome.ce_t = 2; ce_pid = 0; ce_addr = 0;
              ce_action = "invalidate"; ce_messages = 3 };
            { Obs.Sink_chrome.ce_t = 2; ce_pid = 1; ce_addr = 1;
              ce_action = "fetch"; ce_messages = 1 };
            { Obs.Sink_chrome.ce_t = 5; ce_pid = 2; ce_addr = 0;
              ce_action = "roundtrip"; ce_messages = 1 } ] ) ]

let () =
  List.iter
    (fun (path, render) ->
      let oc = open_out_bin path in
      output_string oc (render ());
      close_out oc;
      Printf.printf "wrote %s\n" path)
    fixtures
