(* The repository benchmark.

     suite.exe run -w NAME [-w NAME ...] --seed S [--seconds T] [--json FILE]
     suite.exe trace -w NAME --seed S [--seconds T] [--out FILE] [--json FILE]
     suite.exe layers
     suite.exe compare A B
     suite.exe smoke BENCHMARK.json

   [run] repeats a workload, each repetition in a fresh child process
   ([rep], internal) between two calibration processes ([calibrate],
   internal), as many times as fit in [--seconds], and reports every
   end-to-end metric with its quartiles.  [trace] alternates
   untraced and traced repetitions and reports the per-layer metrics, plus
   the layer loops.  Both print, as their last stdout line, one JSON object
   {correct, attempted, failed, metrics}.  See README.md. *)

type e2e = {
  name : string;
  unit : string;
  bound : float;  (** regression bound, a share of the base median *)
  floor : float;  (** a change smaller than this, in [unit], is no change *)
}

(* The end-to-end metrics of BENCHMARK.json, all lower-is-better, each the
   median over a run's repetitions.  The two times are rescaled to the
   reference host speed (see [reference_calibration_s]). *)
let end_to_end =
  [ { name = "wall_s"; unit = "s"; bound = 0.20; floor = 0.0 };
    { name = "setup_s"; unit = "s"; bound = 0.25; floor = 0.01 };
    { name = "peak_rss_mib"; unit = "MiB"; bound = 0.05; floor = 0.0 };
    { name = "minor_words_per_step"; unit = "words"; bound = 0.02; floor = 0.0 } ]

(* Recorded and printed beside them, but neither listed nor compared: the
   times as the host clock read them, and the calibration loop's time. *)
let host_times = [ "wall_host_s"; "setup_host_s"; "calibration_s" ]

(* The per-layer metrics of BENCHMARK.json, printed by every traced run;
   a layer a workload leaves idle reports 0 counts. *)
let per_layer =
  [ ("program.continue_calls", "count"); ("program.continue_s", "s");
    ("program.continue_share", "ratio") ]
  @ List.concat_map
      (fun d ->
        [ (Printf.sprintf "program.words_per_step.d%d" d, "words");
          (Printf.sprintf "program.ns_per_step.d%d" d, "ns") ])
      [ 0; 4; 16; 64 ]
  @ [ ("signaling.instantiate_s", "s"); ("signaling.polling_ok_calls", "count");
      ("main.self_s", "s");
      ("driver.steps", "count"); ("driver.program_build_calls", "count");
      ("flat_sim.rmr", "count"); ("flat_sim.local", "count");
      ("flat_sim.fetch", "count"); ("flat_sim.invalidate", "count");
      ("flat_sim.update", "count"); ("flat_sim.crash", "count");
      ("flat_sim.messages", "count"); ("flat_sim.advance_ns.dsm", "ns");
      ("flat_sim.advance_ns.cc_wt", "ns"); ("flat_sim.snapshot_restore_ns", "ns");
      ("explore.states", "count"); ("explore.max_depth", "count");
      ("explore.histories", "count"); ("explore.dedup_hits", "count");
      ("explore.dedup_ratio", "ratio"); ("explore.por_prunes", "count");
      ("explore.por_ratio", "ratio"); ("explore.orbit_hits", "count");
      ("explore.orbit_share", "ratio"); ("explore.script_calls", "count");
      ("explore.canonicalize_ns", "ns"); ("op.commute_calls", "count");
      ("fp_intern.distinct", "count"); ("fp_intern.collisions", "count");
      ("fp_intern.resizes", "count"); ("fp_intern.occupancy", "ratio");
      ("fp_intern.intern_ns.hit", "ns"); ("fp_intern.intern_ns.miss", "ns");
      ("memory.apply_ns", "ns"); ("memory.apply_words", "words");
      ("memory.fp_hash_ns", "ns"); ("memory.same_fingerprint_ns", "ns");
      ("sim.advance_ns.lean_dsm", "ns"); ("sim.advance_ns.cc_wt", "ns");
      ("sim.erase_ns_per_step", "ns"); ("adversary.rounds", "count");
      ("adversary.erasures", "count"); ("adversary.erase_failures", "count");
      ("adversary.erase_success_ratio", "ratio");
      ("adversary.participants", "count"); ("adversary.signaler_rmrs", "count");
      ("gc.minor_words", "words"); ("gc.major_collections", "count");
      ("trace.overhead_ratio", "ratio"); ("trace.clock_ns", "ns") ]

(* Host times of layers only some workloads use.  They would read a
   constant 0 on every other workload, so they stay out of BENCHMARK.json
   and appear in the trace's own JSON and table. *)
let detail =
  [ ("signaling.polling_ok_s", "s"); ("explore.script_s", "s");
    ("op.commute_s", "s"); ("driver.program_build_s", "s");
    ("loadgen.prepare_s", "s"); ("explore.detect_symmetry_s", "s");
    ("explore.check_self_s", "s"); ("driver.run_self_s", "s");
    ("adversary.run_self_s", "s"); ("explore.states_per_s", "1/s");
    ("driver.steps_per_s", "1/s") ]

let now_s = Obs.Clock.now_s

(* Python's statistics.quantiles(values, n=4) (the "exclusive" method):
   q1, median, q3. *)
let quartiles values =
  let d = Array.of_list (List.sort compare values) in
  let m = Array.length d in
  if m = 0 then invalid_arg "quartiles: no values";
  if m = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = float_of_int ((i * (m + 1)) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* --- one repetition (child process) --- *)

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Other tenants of a shared host slow whole runs, by up to 2x for minutes
   at a time, so a raw host time drifts more between two runs than any
   bound could allow.  A fixed mix of standard-library work (hash-table
   inserts and lookups, a list sort, map inserts), allocating like the
   workloads but calling no code of the repository, is timed in a process
   of its own ([calibrate]) before the first repetition and right after
   each one; a repetition's host times are multiplied by
   [reference_calibration_s] over the mean of the two.  Of the loops
   tried, it left the smallest spread in the rescaled times (README.md,
   Metrics).  The repetition's process, heap and peak memory stay exactly
   those of a plain run. *)
let reference_calibration_s = 0.1

module Int_map = Map.Make (Int)

let calibration_round r =
  let acc = ref 0 in
  let h = Hashtbl.create 16 in
  for i = 0 to 50_000 do
    Hashtbl.replace h (((i * 7919) + r) land 0xffff) i
  done;
  for i = 0 to 50_000 do
    match Hashtbl.find_opt h i with Some v -> acc := !acc + v | None -> ()
  done;
  let l = List.init 20_000 (fun i -> ((i * 104729) + r) land 0xfffff) in
  acc := !acc + List.hd (List.sort compare l);
  acc := !acc + Int_map.cardinal (List.fold_left (fun m k -> Int_map.add k r m) Int_map.empty l);
  ignore (Sys.opaque_identity !acc)

(* One untimed round first: the fresh process's first-touch page faults
   doubled the loop's spread. *)
let calibrate () =
  calibration_round 0;
  let t0 = Span.now_ns () in
  for r = 1 to 3 do
    calibration_round r
  done;
  Printf.printf "%.17g\n" (float_of_int (Span.now_ns () - t0) *. 1e-9)

(* Per-layer numbers of a traced repetition, read off its spans. *)
let span_metrics trace ~clock_ns (o : Workloads.outcome) =
  let main = Span.find trace o.Workloads.main_span in
  let main_s = float_of_int main.Span.dur_ns *. 1e-9 in
  let self = Span.self_s trace ~clock_ns main in
  let span_s name =
    match List.find_opt (fun s -> s.Span.name = name) (Span.spans trace) with
    | Some s -> float_of_int s.Span.dur_ns *. 1e-9
    | None -> 0.0
  in
  let rate =
    match o.Workloads.main_span with
    | "explore.check" -> [ ("explore.states_per_s", float_of_int o.Workloads.steps /. main_s) ]
    | "driver.run" -> [ ("driver.steps_per_s", float_of_int o.Workloads.steps /. main_s) ]
    | _ -> []
  in
  List.concat_map
    (fun k ->
      [ (Span.kind_name k ^ "_calls", float_of_int (Span.callback_calls main k));
        (Span.kind_name k ^ "_s", Span.callback_s main k) ])
    Span.kinds
  @ rate
  @ [ ("program.continue_share", Span.callback_s main Span.Continue /. main_s);
      ("signaling.instantiate_s", span_s "signaling.instantiate");
      ("loadgen.prepare_s", span_s "loadgen.prepare");
      ("explore.detect_symmetry_s", span_s "explore.detect_symmetry");
      ("main.self_s", self); (o.Workloads.main_span ^ "_self_s", self);
      ("gc.minor_words", main.Span.minor_words);
      ("gc.major_collections", float_of_int main.Span.major_collections) ]

let mkdir_p path =
  let rec go d =
    if d <> "." && d <> "/" && d <> "" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go path

let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)

let rep workload seed smoke traced =
  (* A repetition that hangs counts as failed: the alarm kills it. *)
  ignore (Unix.alarm 120);
  let size = if smoke then Workloads.Smoke else Workloads.Full in
  let trace = Option.map (fun _ -> Span.create ()) traced in
  let o =
    Span.with_ trace workload (fun () -> Workloads.run ?trace ~size ~seed workload)
  in
  let peak_rss_mib = peak_rss_mib () in
  let layer =
    match (trace, traced) with
    | Some t, Some file ->
      let clock_ns = Layers.clock_ns ~min_s:0.01 in
      mkdir_p (Filename.dirname file);
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Span.to_chrome t ~clock_ns));
      o.Workloads.layer @ span_metrics t ~clock_ns o
    | _ -> o.Workloads.layer
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) o.Workloads.checks));
            ( "metrics",
              num_obj
                [ ("wall_host_s", o.Workloads.wall_s); ("setup_host_s", o.Workloads.setup_s);
                  ("peak_rss_mib", peak_rss_mib);
                  ( "minor_words_per_step",
                    o.Workloads.minor_words /. float_of_int (max 1 o.Workloads.steps) ) ] );
            ("sim", num_obj (List.map (fun (k, v) -> (k, float_of_int v)) o.Workloads.sim));
            ("layer", num_obj layer) ]))

(* --- the parent side --- *)

type rep_result = {
  checks : (string * bool) list;
  metrics : (string * float) list;
  sim : Json.t;
  layer : (string * float) list;
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("suite: " ^ s); exit 1) fmt

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Runs this executable with [args]; its exit status and stdout. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (waitpid pid, out)

let calibration_s () =
  match spawn [ "calibrate" ] with
  | Unix.WEXITED 0, out -> float_of_string (String.trim out)
  | _ -> fail "the calibration process failed"

(* One repetition in a fresh child process; [None] when it crashed, timed
   out or printed no report. *)
let spawn_rep ~workload ~seed ~smoke ?traced () =
  let status, out =
    spawn
      ([ "rep"; "-w"; workload; "--seed"; string_of_int seed ]
      @ (if smoke then [ "--smoke" ] else [])
      @ match traced with Some f -> [ "--traced"; f ] | None -> [])
  in
  let parse () =
    let v = Json.of_string out in
    let assoc key = List.map (fun (k, x) -> (k, Json.to_num x)) (Json.to_assoc (Json.member key v)) in
    { checks = List.map (fun (k, x) -> (k, Json.to_bool x)) (Json.to_assoc (Json.member "checks" v));
      metrics = assoc "metrics"; sim = Json.member "sim" v; layer = assoc "layer" }
  in
  match status with
  | Unix.WEXITED 0 -> (
    match parse () with
    | r -> Some r
    | exception Json.Error msg ->
      Printf.eprintf "suite: unreadable report from %s: %s\n%!" workload msg;
      None)
  | _ ->
    Printf.eprintf "suite: a %s repetition failed\n%!" workload;
    None

(* At least [min_reps] repetitions, then more while the longest one so far
   would still end within [seconds]. *)
let time_boxed ~seconds ~min_reps next =
  let t0 = now_s () in
  let rec go i longest acc =
    let start = now_s () in
    if i >= min_reps && start -. t0 +. longest > seconds then List.rev acc
    else
      let r = next () in
      go (i + 1) (Float.max longest (now_s () -. start)) (r :: acc)
  in
  go 0 0.0 []

(* Repetitions that passed every check and reproduced the reference
   simulated outputs, plus the run's check summary. *)
let vet ~reference reps =
  let returned = List.filter_map Fun.id reps in
  let reference =
    match reference with
    | Some s -> Some s
    | None -> Option.map (fun r -> r.sim) (List.find_opt (fun r -> List.for_all snd r.checks) returned)
  in
  let good =
    List.filter
      (fun r -> List.for_all snd r.checks && Some r.sim = reference)
      returned
  in
  let names = match returned with r :: _ -> List.map fst r.checks | [] -> [] in
  let checks =
    List.map (fun n -> (n, List.for_all (fun r -> List.assoc_opt n r.checks = Some true) returned)) names
    @ [ ("identical_sim", List.for_all (fun r -> Some r.sim = reference) returned) ]
  in
  (good, checks, reference)

type result = {
  mode : string;
  workload : string;
  seed : int;
  smoke : bool;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  sim : Json.t;
  stats : (string * Json.t) list;  (** name, JSON summary (with its unit) *)
  reported : (string * string * float) list;  (** the result line's metrics *)
}

let correct r = r.failed = 0 && List.for_all snd r.checks

let result_line r =
  Json.Obj
    [ ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             r.reported) ) ]

let record r =
  Json.Obj
    [ ("mode", Json.Str r.mode); ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed)); ("smoke", Json.Bool r.smoke);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failed_frac", Json.Num (float_of_int r.failed /. float_of_int r.attempted));
      ("correct", Json.Bool (correct r));
      ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) r.checks));
      ("sim", r.sim);
      ("metrics", Json.Obj r.stats) ]

(* The median and quartiles of a run's repetitions; an end-to-end metric
   also records the bound it was measured under. *)
let summary ~unit ?bound values =
  let q1, med, q3 = quartiles values in
  Json.Obj
    ([ ("unit", Json.Str unit); ("value", Json.Num med); ("q1", Json.Num q1);
       ("q3", Json.Num q3); ("n", Json.Num (float_of_int (List.length values)));
       ("values", Json.Arr (List.map (fun v -> Json.Num v) values)) ]
    @ match bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])

(* The run's repetitions with their times rescaled by the calibrations on
   either side; each calibration but the first and last serves the
   repetitions before and after it.  Smoke runs skip the calibrations
   (factor 1). *)
let run_workload ~seconds ~smoke ~seed workload =
  let calibrate () = if smoke then reference_calibration_s else calibration_s () in
  let last = ref (calibrate ()) in
  let rescale before (r : rep_result) =
    let calibration = (before +. !last) /. 2.0 in
    let rescaled name = List.assoc name r.metrics *. reference_calibration_s /. calibration in
    { r with
      metrics =
        [ ("wall_s", rescaled "wall_host_s"); ("setup_s", rescaled "setup_host_s");
          ("calibration_s", calibration) ]
        @ r.metrics }
  in
  let reps =
    time_boxed ~seconds ~min_reps:(if smoke then 1 else 3) (fun () ->
        let before = !last in
        let r = spawn_rep ~workload ~seed ~smoke () in
        last := calibrate ();
        Option.map (rescale before) r)
  in
  let good, checks, reference = vet ~reference:None reps in
  if good = [] then fail "%s: no repetition passed its checks" workload;
  let attempted = List.length reps in
  let failed = attempted - List.length good in
  let values name = List.map (fun r -> List.assoc name r.metrics) good in
  { mode = "run"; workload; seed; smoke; attempted; failed; checks;
    sim = Option.value reference ~default:Json.Null;
    stats =
      List.map (fun m -> (m.name, summary ~unit:m.unit ~bound:m.bound (values m.name))) end_to_end
      @ List.map (fun name -> (name, summary ~unit:"s" (values name))) host_times;
    reported = List.map (fun m -> (m.name, m.unit, median (values m.name))) end_to_end }

let default_out workload seed =
  Filename.concat "bench/suite/out" (Printf.sprintf "%s-seed%d.trace.json" workload seed)

(* Untraced and traced repetitions in alternation: the untraced ones give
   the reference outputs the traced ones must reproduce, and the tracing
   overhead.  The layer loops count against [seconds] too. *)
let trace_workload ~seconds ~smoke ~seed ~out workload =
  let t0 = now_s () in
  let loops = Layers.all ~smoke in
  let pairs =
    time_boxed ~seconds:(seconds -. (now_s () -. t0)) ~min_reps:1 (fun () ->
        let plain = spawn_rep ~workload ~seed ~smoke () in
        (plain, spawn_rep ~workload ~seed ~smoke ~traced:out ()))
  in
  let plain_good, plain_checks, reference = vet ~reference:None (List.map fst pairs) in
  let traced_good, traced_checks, _ = vet ~reference (List.map snd pairs) in
  if plain_good = [] || traced_good = [] then
    fail "%s: no traced/untraced repetition passed its checks" workload;
  let attempted = 2 * List.length pairs in
  let failed = attempted - List.length plain_good - List.length traced_good in
  let wall reps = median (List.map (fun r -> List.assoc "wall_host_s" r.metrics) reps) in
  let traced_median name =
    match List.filter_map (fun r -> List.assoc_opt name r.layer) traced_good with
    | [] -> 0.0
    | vs -> median vs
  in
  let value name =
    match List.assoc_opt name loops with
    | Some v -> v
    | None ->
      if name = "trace.overhead_ratio" then wall traced_good /. wall plain_good
      else traced_median name
  in
  let with_units = List.map (fun (name, unit) -> (name, unit, value name)) in
  { mode = "trace"; workload; seed; smoke; attempted; failed;
    checks =
      plain_checks
      @ List.map (fun (k, v) -> ("traced." ^ k, v)) traced_checks;
    sim = Option.value reference ~default:Json.Null;
    stats =
      List.map
        (fun (name, unit, v) -> (name, Json.Obj [ ("unit", Json.Str unit); ("value", Json.Num v) ]))
        (with_units (per_layer @ detail));
    reported = with_units per_layer }

(* --- printing --- *)

let print_result r =
  Printf.printf "%s %s seed %d%s: %d attempted, %d failed, %s\n" r.mode
    r.workload r.seed (if r.smoke then " (smoke)" else "") r.attempted r.failed
    (if correct r then "correct" else "INCORRECT");
  Printf.printf "  checks: %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ (if v then ":ok" else ":FAIL")) r.checks));
  List.iter
    (fun (name, s) ->
      let f k = Json.to_num (Json.member k s) in
      let unit = Json.to_str (Json.member "unit" s) in
      if r.mode = "run" then
        Printf.printf "  %-22s %12.6g %-6s (q1 %.6g, q3 %.6g, n=%.0f)\n" name (f "value") unit
          (f "q1") (f "q3") (f "n")
      else Printf.printf "  %-34s %14.6g %s\n" name (f "value") unit)
    r.stats

let write_set file results =
  mkdir_p (Filename.dirname file);
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string (Json.Arr (List.map record results)));
      output_char oc '\n')

let finish ?json results =
  List.iter print_result results;
  Option.iter (fun f -> write_set f results) json;
  match results with
  | [ r ] -> print_endline (Json.to_string (result_line r))
  | _ ->
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool (List.for_all correct results));
              ("runs", Json.Arr (List.map result_line results)) ]))

let expand workloads =
  if List.mem "all" workloads then Workloads.names
  else begin
    List.iter
      (fun w ->
        if not (List.mem w Workloads.names) then
          fail "unknown workload %s; valid: %s all" w (String.concat " " Workloads.names))
      workloads;
    workloads
  end

let run_cmd workloads seed seconds smoke json =
  let results =
    List.map (run_workload ~seconds ~smoke ~seed) (expand workloads)
  in
  finish ?json results

let trace_cmd workload seed seconds smoke out json =
  let workload = match expand [ workload ] with [ w ] -> w | _ -> fail "trace takes one workload" in
  let out = Option.value out ~default:(default_out workload seed) in
  let r = trace_workload ~seconds ~smoke ~seed ~out workload in
  Printf.printf "chrome trace: %s\n" out;
  finish ?json [ r ]

let layers_cmd smoke =
  let loops = Layers.all ~smoke in
  let unit name = try List.assoc name per_layer with Not_found -> "ns" in
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %14.6g %s\n" name v (unit name))
    loops;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit name)) ]))
                   loops) ) ]))

(* --- compare --- *)

(* Run records of a result file, or of every .json file in a directory. *)
let read_set path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map (fun f -> Json.to_list (Json.read_file f)) files
  |> List.filter (fun r -> Json.member "mode" r = Json.Str "run")

let key r =
  (Json.to_str (Json.member "workload" r), int_of_float (Json.to_num (Json.member "seed" r)))

(* Verdict on one lower-is-better metric, from each side's median and
   quartiles (a run summary, see [summary]):
   - [same] when the medians differ by less than the metric's floor;
   - [unresolved] when either side's spread, (q3 - q1) / median, is wider
     than the bound, unless every B repetition reads lower than every A
     repetition;
   - else [worse] or [better] when the medians differ by more than the
     bound in that direction, else [same]. *)
let verdict m ~a ~b =
  let f s k = Json.to_num (Json.member k s) in
  let values s = List.map Json.to_num (Json.to_list (Json.member "values" s)) in
  let spread s = (f s "q3" -. f s "q1") /. f s "value" in
  let va = f a "value" and vb = f b "value" in
  let lower_throughout =
    List.fold_left Float.max Float.neg_infinity (values b)
    < List.fold_left Float.min Float.infinity (values a)
  in
  if Float.abs (vb -. va) < m.floor then "same"
  else if Float.max (spread a) (spread b) > m.bound && not lower_throughout then "unresolved"
  else if vb -. va > m.bound *. va then "worse"
  else if va -. vb > m.bound *. va then "better"
  else "same"

let compare_cmd a b =
  let set_a = read_set a and set_b = read_set b in
  let bad = ref false in
  Printf.printf "%-14s %4s %-21s %11s %11s %7s  %-23s %-23s %s\n" "workload" "seed" "metric"
    "A" "B" "B/A" "A q1-q3" "B q1-q3" "verdict";
  List.iter
    (fun ra ->
      let w, seed = key ra in
      match List.find_opt (fun rb -> key rb = key ra) set_b with
      | None -> Printf.printf "%-14s %4d missing from B\n" w seed
      | Some rb ->
        List.iter
          (fun (side, r) ->
            if Json.to_num (Json.member "failed" r) > 0.0 then begin
              bad := true;
              Printf.printf "%-14s %4d failed_frac > 0 in %s\n" w seed side
            end)
          [ ("A", ra); ("B", rb) ];
        List.iter
          (fun m ->
            let sa = Json.member m.name (Json.member "metrics" ra)
            and sb = Json.member m.name (Json.member "metrics" rb) in
            let f s k = Json.to_num (Json.member k s) in
            let q s = Printf.sprintf "%.6g-%.6g" (f s "q1") (f s "q3") in
            let v = verdict m ~a:sa ~b:sb in
            if v = "worse" then bad := true;
            Printf.printf "%-14s %4d %-21s %11.6g %11.6g %7.4f  %-23s %-23s %s\n" w seed m.name
              (f sa "value") (f sb "value") (f sb "value" /. f sa "value") (q sa) (q sb) v)
          end_to_end)
    set_a;
  if !bad then exit 1

(* --- smoke --- *)

let smoke_cmd bench_file =
  let spec = Json.read_file bench_file in
  let names key = List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key spec)) in
  let same what listed ours =
    if List.sort compare listed <> List.sort compare ours then
      fail "BENCHMARK.json %s [%s] differ from the suite's [%s]" what
        (String.concat " " listed) (String.concat " " ours)
  in
  same "workloads" (names "workloads") Workloads.names;
  same "end_to_end" (names "end_to_end") (List.map (fun m -> m.name) end_to_end);
  List.iter
    (fun e ->
      let m = List.find (fun m -> m.name = Json.to_str (Json.member "name" e)) end_to_end in
      if Json.member "unit" e <> Json.Str m.unit || Json.member "bound" e <> Json.Num m.bound
      then fail "BENCHMARK.json gives %s another unit or bound than the suite" m.name)
    (Json.to_list (Json.member "end_to_end" spec));
  same "per_layer" (names "per_layer") (List.map fst per_layer);
  let printed r = match result_line r with Json.Obj l -> Json.to_assoc (List.assoc "metrics" l) |> List.map fst | _ -> [] in
  List.iter
    (fun w ->
      let run = run_workload ~seconds:0.0 ~smoke:true ~seed:1 w in
      let trace = trace_workload ~seconds:0.0 ~smoke:true ~seed:1 ~out:(default_out w 1) w in
      List.iter
        (fun r ->
          if not (correct r) then begin
            print_result r;
            fail "%s %s: a check failed" r.mode w
          end;
          Printf.printf "smoke: %s %s ok (%d repetitions)\n" r.mode w r.attempted)
        [ run; trace ];
      same (w ^ " run metrics") (names "end_to_end") (printed run);
      same (w ^ " trace metrics") (names "per_layer") (printed trace))
    Workloads.names;
  print_endline "smoke: ok"

(* --- command line --- *)

open Cmdliner

let workload_doc =
  Printf.sprintf "Workload: %s, or all." (String.concat ", " Workloads.names)

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")

let seconds =
  Arg.(
    value & opt float 26.0
    & info [ "seconds" ] ~docv:"T"
        ~doc:"Keep starting repetitions until $(docv) seconds have passed.")

let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny workload sizes, one repetition.")

let json =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the full results to $(docv).")

let run_t =
  let workloads =
    Arg.(non_empty & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME" ~doc:workload_doc)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the end-to-end metrics of workloads.")
    Term.(const run_cmd $ workloads $ seed $ seconds $ smoke $ json)

let one_workload =
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc:workload_doc)

let trace_t =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Chrome trace file (default bench/suite/out/NAME-seedS.trace.json).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Traced run: the per-layer metrics of one workload.")
    Term.(const trace_cmd $ one_workload $ seed $ seconds $ smoke $ out $ json)

let layers_t =
  Cmd.v (Cmd.info "layers" ~doc:"Run the layer loops.") Term.(const layers_cmd $ smoke)

let compare_t =
  let file n = Arg.(required & pos n (some string) None & info [] ~docv:"RESULTS") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two result sets (files written by run --json, or directories \
          of them); exits 1 on a regression beyond a bound or a failed repetition.")
    Term.(const compare_cmd $ file 0 $ file 1)

let smoke_t =
  let bench = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK.json") in
  Cmd.v
    (Cmd.info "smoke" ~doc:"Every workload at smoke size, checked against BENCHMARK.json.")
    Term.(const smoke_cmd $ bench)

let calibrate_t =
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Time the calibration loop (run around each repetition).")
    Term.(const calibrate $ const ())

let rep_t =
  let traced =
    Arg.(value & opt (some string) None & info [ "traced" ] ~docv:"FILE" ~doc:"Trace, writing the Chrome trace to $(docv).")
  in
  Cmd.v
    (Cmd.info "rep" ~doc:"One repetition (run by run and trace in a child process).")
    Term.(const rep $ one_workload $ seed $ smoke $ traced)

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "suite" ~doc:"The repository benchmark.")
          [ run_t; trace_t; layers_t; compare_t; smoke_t; rep_t; calibrate_t ]))
