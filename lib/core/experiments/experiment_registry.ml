(* The experiment registry.  One registration line per experiment. *)

let builtin : Experiment_def.spec list =
  [ E1_cc_flag.spec;
    E2_adversary.spec;
    E3_landscape.spec;
    E4_queue_k.spec;
    E5_separation.spec;
    E6_messages.spec;
    E7_mutex.spec;
    E8_cas.spec;
    E9_rounds.spec;
    E10_gme.spec;
    E11_timing.spec;
    E12_caches.spec;
    E13_blocking.spec;
    E14_amortized.spec;
    E15_churn.spec ]

let all () = builtin

let ids () = List.map (fun s -> s.Experiment_def.id) (all ())

let find id =
  List.find_opt (fun s -> s.Experiment_def.id = id) (all ())

let find_exn id =
  match find id with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown experiment %S; valid ids: %s" id
         (String.concat " " (ids ())))
