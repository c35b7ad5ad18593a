(* The command line on inputs it must refuse — or once died on: each case
   runs `separation explore` and checks its exit code and the message on
   stderr.  Invalid input exits 2 with a message naming the problem
   (cmdliner's own parse errors exit 124); never an internal error. *)

open Test_util

let exe = "../bin/separation.exe"

(* Exit code, stdout and stderr of one run. *)
let run args =
  let out = Filename.temp_file "separation-cli" ".out" in
  let err = Filename.temp_file "separation-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s explore %s > %s 2> %s" exe args (Filename.quote out)
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
    ("-a cc-flag -n 3 --mem-budget=-1", 2,
     "separation: explore: --mem-budget must be >= 0, got -1");
    ("-a nope", 124, "unknown algorithm \"nope\"");
    ("-a cc-flag -k=-1", 124, "invalid value");
    (* Accepted now: symmetry detection used to raise on dsm-queue's
       out-of-range queue index (exit 125). *)
    ("-a dsm-queue --json", 0,
     "symmetry: declined (waiter programs not interchangeable)") ]

let test_explore_inputs () =
  List.iter
    (fun (args, code, message) ->
      let got, out, err = run args in
      check_int (args ^ ": exit code") code got;
      check_true
        (Printf.sprintf "%s: stderr mentions %S (got %S)" args message err)
        (contains err message);
      check_false (args ^ ": no internal error") (contains err "internal error");
      if code <> 0 then check_true (args ^ ": nothing on stdout") (out = ""))
    cases

let suite = [ case "explore: invalid inputs exit with a message" test_explore_inputs ]
