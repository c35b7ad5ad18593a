(* The command line on inputs it must refuse — or once died on: each case
   runs one subcommand and checks its exit code and the message on the
   stream the case names (stderr, except for accepted rows whose result
   is on stdout).  Invalid input exits 2 with a message naming the
   problem (cmdliner's own parse errors exit 124); never an internal
   error. *)

open Test_util

let exe = "../bin/separation.exe"

(* Exit code, stdout and stderr of one run of subcommand [cmd]. *)
let run cmd args =
  let out = Filename.temp_file "separation-cli" ".out" in
  let err = Filename.temp_file "separation-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s > %s 2> %s" exe cmd args (Filename.quote out)
         (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The stream a case's message must appear on. *)
type stream = Out | Err

let cases =
  [ ("-a cc-flag -n 2 -k 3", 2,
     "separation: explore: waiter pid 2 out of range for 2 process(es)");
    ("-a cc-flag -n 3 -k 2 --signalers 2", 2,
     "separation: explore: waiter pid 3 out of range for 3 process(es)");
    ("-a dsm-single -n 4 -k 2", 2,
     "separation: explore: algorithm supports at most 1 waiter(s), 2 configured");
    ("-a cc-flag -n 0", 2, "separation: explore: -n must be >= 1, got 0");
    ("-a cc-flag -n 3 --signalers=-1", 2,
     "separation: explore: --signalers must be >= 0, got -1");
    ("-a cc-flag -n 3 --polls=-2", 2,
     "separation: explore: --polls must be >= 0, got -2");
    ("-a cc-flag -n 3 --cap=-5", 2, "separation: explore: --cap must be >= 0, got -5");
    ("-a cc-flag -n 3 --mem-budget 64", 124, "unknown option '--mem-budget'");
    ("-a cc-flag -n 3 --split-depth 0", 124, "unknown option '--split-depth'");
    ("-a cc-flag -n 3 --jobs 2", 124, "unknown option '--jobs'");
    ("-a cc-flag -n 3 --static-indep", 124, "unknown option '--static-indep'");
    ("-a nope", 124, "unknown algorithm \"nope\"");
    ("-a cc-flag -k=-1", 124, "invalid value");
    (* Accepted now: symmetry detection used to raise on dsm-queue's
       out-of-range queue index (exit 125). *)
    ("-a dsm-queue --json", 0,
     "symmetry: declined (waiter programs not interchangeable)") ]

(* The Section 6 adversary, also behind `trace --adversary`.  Each of
   these once died with an internal error (exit 125), ran to a fuel
   failure, or printed a vacuous result and exited 0. *)
let adversary_cases =
  [ ("adversary", "-a dsm-registration", 2, Err,
     "separation: adversary: dsm-registration fixes its signaler in advance");
    ("adversary", "-a dsm-single -n 8", 2, Err,
     "separation: adversary: algorithm supports at most 1 waiter(s), 8 \
      configured");
    ("adversary", "-a dsm-broadcast -n 8 --stability-polls=-1", 2, Err,
     "separation: adversary: --stability-polls must be >= 0, got -1");
    ("adversary", "-a cc-flag --strategy pct -n 0", 2, Err,
     "separation: adversary: -n must be >= 1, got 0");
    ("adversary", "-a cc-flag --strategy walk -n 0", 2, Err,
     "separation: adversary: -n must be >= 1, got 0");
    (* PCT at depth d places d - 1 change points, so d >= 1. *)
    ("adversary", "-a cc-flag --strategy pct --depth 0", 2, Err,
     "separation: adversary: --depth must be >= 1, got 0");
    ("adversary", "-a cc-flag --strategy pct --depth=-3", 2, Err,
     "separation: adversary: --depth must be >= 1, got -3");
    (* The signaler awaits the participation of waiters the chase erased. *)
    ("adversary", "-a dsm-fixed-term", 1, Err,
     "separation: adversary: dsm-fixed-term: the goose chase phase ran out of \
      fuel driving p0");
    ("adversary", "-a dsm-broadcast -n 0", 2, Err,
     "separation: adversary: -n must be >= 1, got 0");
    ("adversary", "-a dsm-broadcast -n 8 --rounds=-1", 2, Err,
     "separation: adversary: --rounds must be >= 0, got -1");
    ("trace", "--adversary -a dsm-registration", 2, Err,
     "separation: trace: dsm-registration fixes its signaler in advance");
    ("trace", "--adversary -a dsm-single -n 8", 2, Err,
     "separation: trace: algorithm supports at most 1 waiter(s), 8 configured");
    ("trace", "--adversary -a dsm-broadcast -n 0", 2, Err,
     "separation: trace: -n must be >= 1, got 0");
    ("trace", "-a cc-flag -n 0", 2, Err,
     "separation: trace: -n must be >= 1, got 0");
    (* The construction always runs in DSM: another model is refused,
       where it was once silently ignored.  The randomized strategies and
       plain `trace` honour -m. *)
    ("trace", "--adversary -a cc-flag -n 8 -m cc-wt", 2, Err,
     "separation: trace: --adversary always runs in the DSM model, got \
      --model cc-wt");
    ("adversary", "-a cc-flag -n 8 -m cc-lfcu", 2, Err,
     "separation: adversary: --strategy section6 always runs in the DSM \
      model, got --model cc-lfcu");
    ("adversary", "-a cc-flag -n 8 --strategy section6 -m cc-wb", 2, Err,
     "separation: adversary: --strategy section6 always runs in the DSM \
      model, got --model cc-wb");
    ("trace", "--adversary -a dsm-broadcast -n 8 -m dsm", 0, Out,
     "\"decision\":\"signaler\"");
    ("adversary", "-a cc-flag -n 4 --strategy pct -m cc-wt", 0, Out,
     "0 violation(s)");
    ("trace", "-a cas-register -n 4 -m cc-lfcu", 0, Out,
     "\"protocol\":\"cc-lfcu\"");
    (* The stream is rendered in one pass; --jobs is gone. *)
    ("trace", "-a cc-flag -n 4 --jobs 2", 124, Err, "unknown option '--jobs'");
    ("adversary", "-a dsm-broadcast -n 8", 0, Out,
     "part 2: signaler p0 incurred 7 RMRs (7 waiters erased, 0 erasures \
      blocked)") ]

(* Case counts, work budgets and case indices are never negative. *)
let fuzz_cases =
  [ ("fuzz", "--cases=-1", 2, Err,
     "separation: fuzz: --cases must be >= 0, got -1");
    ("fuzz", "--budget=-5", 2, Err,
     "separation: fuzz: --budget must be >= 0, got -5");
    ("fuzz", "--only=-3", 2, Err,
     "separation: fuzz: --only must be >= 0, got -3") ]

(* `run` once died on -n 0 (List.init) and on a single-waiter algorithm
   at -n 1, reported more participants than processes when -k exceeded
   the waiters, and dropped -k silently under --seed. *)
let run_cases =
  [ ("run", "-a cc-flag -n 0", 2, Err, "separation: run: -n must be >= 1, got 0");
    ("run", "-a cc-flag -n 3 -k 5", 2, Err,
     "separation: run: --waiters must be <= 2 (cc-flag at -n 3), got 5");
    ("run", "-a dsm-single -n 4 -k 2", 2, Err,
     "separation: run: --waiters must be <= 1 (dsm-single at -n 4), got 2");
    ("run", "-a cc-flag -n 4 --seed 3 -k 2", 2, Err,
     "separation: run: --waiters restricts the phased schedule; --seed runs \
      every waiter");
    ("run", "-a dsm-single -n 1", 0, Out, "dsm-single under dsm (N=1)") ]

(* `load` and `profile` share one flag term, so both refuse the same
   values under their own names.  Each of these once died with an
   internal error (exit 125), ran silently on a meaningless value, or
   failed on its output file after printing stdout; a single-waiter
   algorithm at k = 2 once ran with one waiter instantiated and read
   spec_ok no.  What the arrival converter refuses is a cmdliner parse
   error (exit 124). *)
let load_cases =
  [ ("load", "--polls 0", 2, Err, "separation: load: --polls must be >= 1, got 0");
    ("load", "--signals=-3", 2, Err,
     "separation: load: --signals must be >= 0, got -3");
    ("load", "-m cc-wt --ways 0", 2, Err,
     "separation: load: --ways must be >= 1, got 0");
    ("load", "--waiters=-1", 2, Err,
     "separation: load: --waiters must be >= 0, got -1");
    ("load", "--crash-prob 2.0", 2, Err,
     "separation: load: --crash-prob must be in [0, 1], got 2");
    ("load", "--leave-prob 1.5", 2, Err,
     "separation: load: --leave-prob must be in [0, 1], got 1.5");
    ("load", "--leave-prob=-1", 2, Err,
     "separation: load: --leave-prob must be in [0, 1], got -1");
    ("load", "--signal-every=-4", 2, Err,
     "separation: load: --signal-every must be >= 0, got -4");
    ("load", "--arrivals poisson:-1", 124, Err,
     "bad arrival spec \"poisson:-1\": Poisson mean");
    ("load", "--arrivals uniform:-3", 124, Err,
     "bad arrival spec \"uniform:-3\": uniform gap");
    ("load", "--arrivals bursty:0,1", 124, Err,
     "bad arrival spec \"bursty:0,1\": burst must be");
    ("load", "-k 10 --perf-out missing-dir/perf.json", 2, Err,
     "separation: load: --perf-out: missing-dir/perf.json");
    ("load", "-a dsm-single -k 2", 2, Err,
     "separation: load: algorithm supports at most 1 waiter(s), 2 configured");
    (* Accepted now: the single-waiter algorithm has no waiter at k = 0. *)
    ("load", "-a dsm-single -k 0", 0, Err, "load: dsm-single/dsm k=0");
    ("load", "-a dsm-single -k 1", 0, Err, "load: dsm-single/dsm k=1") ]

let profile_cases =
  [ ("profile", "--top=-1", 2, Err,
     "separation: profile: --top must be >= 0, got -1");
    ("profile", "--chrome-cap=-5", 2, Err,
     "separation: profile: --chrome-cap must be >= 0, got -5");
    ("profile", "--polls 0", 2, Err,
     "separation: profile: --polls must be >= 1, got 0");
    ("profile", "-m cc-wt --ways 0", 2, Err,
     "separation: profile: --ways must be >= 1, got 0");
    ("profile", "--arrivals bursty:0,1", 124, Err,
     "bad arrival spec \"bursty:0,1\": burst must be");
    ("profile", "-k 10 --chrome-out missing-dir/trace.json", 2, Err,
     "separation: profile: --chrome-out: missing-dir/trace.json");
    ("profile", "-a dsm-single -k 2", 2, Err,
     "separation: profile: algorithm supports at most 1 waiter(s), 2 configured");
    ("profile", "-a dsm-single -k 1", 0, Out, "hot cells") ]

(* A run that reads spec_ok no is a finding, not a refused input: `load`
   prints its whole table, flags the run on stderr and exits 1.  The
   first case is cas-register's recorded Specification 4.1 race
   (polls_true 200 of 400); once that race is fixed it needs another
   failing input. *)
let load_finding_cases =
  [ ("-a cas-register -m dsm -k 200 --polls 2 --seed 1", 1);
    ("-a cas-register -m dsm -k 200 --polls 1 --seed 1", 0) ]

(* A signaling entry needs a signaler and a waiter; below that the lint
   once exited with only "List.init" or "index out of bounds". *)
let lint_cases =
  [ ("lint", "-n 0", 2, Err, "separation: lint: -n must be >= 2, got 0");
    ("lint", "-n 1", 2, Err, "separation: lint: -n must be >= 2, got 1") ]

let tables_cases =
  [ ("tables", "e99", 2, Err, "separation: unknown experiment \"e99\"");
    (* `tables` has no alias. *)
    ("experiments", "e1", 124, Err, "unknown command 'experiments'") ]

(* A refused input names its problem on stderr and prints nothing on
   stdout. *)
let check_cases cases =
  List.iter
    (fun (cmd, args, code, stream, message) ->
      let got, out, err = run cmd args in
      let args = cmd ^ " " ^ args in
      check_int (args ^ ": exit code") code got;
      let name, shown =
        match stream with Out -> ("stdout", out) | Err -> ("stderr", err)
      in
      check_true
        (Printf.sprintf "%s: %s mentions %S (got %S)" args name message shown)
        (contains shown message);
      check_false (args ^ ": no internal error") (contains err "internal error");
      if code <> 0 then check_true (args ^ ": nothing on stdout") (out = ""))
    cases

let test_explore_inputs () =
  check_cases
    (List.map
       (fun (args, code, message) -> ("explore", args, code, Err, message))
       cases)

let test_adversary_inputs () = check_cases adversary_cases

let test_fuzz_inputs () = check_cases fuzz_cases
let test_run_inputs () = check_cases run_cases
let test_load_inputs () = check_cases load_cases
let test_profile_inputs () = check_cases profile_cases
let test_lint_inputs () = check_cases lint_cases
let test_tables_inputs () = check_cases tables_cases

let test_load_findings () =
  List.iter
    (fun (args, code) ->
      let got, out, err = run "load" args in
      let args = "load " ^ args in
      check_int (args ^ ": exit code") code got;
      check_true (args ^ ": table on stdout") (contains out "spec_ok");
      check_true
        (args ^ ": stderr flags a violation exactly when it exits 1")
        (contains err "SPEC 4.1 VIOLATED" = (code = 1));
      check_false (args ^ ": no internal error") (contains err "internal error"))
    load_finding_cases

let suite =
  [ case "explore: invalid inputs exit with a message" test_explore_inputs;
    case "adversary and trace --adversary: invalid inputs exit with a message"
      test_adversary_inputs;
    case "fuzz: invalid inputs exit with a message" test_fuzz_inputs;
    case "run: invalid inputs exit with a message" test_run_inputs;
    case "load: invalid inputs exit with a message" test_load_inputs;
    case "load: a spec_ok no row exits 1 after the table" test_load_findings;
    case "profile: invalid inputs exit with a message" test_profile_inputs;
    case "lint: invalid inputs exit with a message" test_lint_inputs;
    case "tables: unknown ids and commands exit with a message"
      test_tables_inputs ]
