(* The algorithm catalog shared by the experiments, the CLI and the tests. *)

module Queue_multi_signaler = Multi_signaler.Make (Dsm_queue)

let polling_algorithms : (module Signaling.POLLING) list =
  [ (module Cc_flag);
    (module Dsm_broadcast);
    (module Dsm_fixed_waiters);
    (module Dsm_fixed_terminating);
    (module Dsm_single_waiter);
    (module Dsm_registration);
    (module Dsm_queue);
    (module Cas_register);
    (module Cas_register.Transformed);
    (module Llsc_register);
    (module Llsc_register.Transformed);
    (module Queue_multi_signaler) ]

let find_algorithm name =
  List.find_opt
    (fun (module A : Signaling.POLLING) -> A.name = name)
    polling_algorithms

(* Standard configuration: process 0 signals, everyone else may wait.  The
   single-waiter algorithm gets one waiter when there is a process for it
   (a 1-process system has none, as for every other algorithm). *)
let config_for (module A : Signaling.POLLING) ~n =
  let waiters =
    match A.flexibility.Signaling.max_waiters with
    | Some 1 when n >= 2 -> [ 1 ]
    | _ -> List.init (n - 1) (fun i -> i + 1)
  in
  Signaling.config ~n ~waiters ~signalers:[ 0 ]

let locks : (module Sync.Mutex_intf.LOCK) list =
  [ (module Sync.Tas_lock);
    (module Sync.Ttas_lock);
    (module Sync.Ticket_lock);
    (module Sync.Anderson_lock);
    (module Sync.Clh_lock);
    (module Sync.Mcs_lock);
    (module Sync.Yang_anderson);
    (module Sync.Bakery_lock) ]

module Blocking_cc_flag = Signaling.Blocking_of_polling (Cc_flag)
module Blocking_queue = Signaling.Blocking_of_polling (Dsm_queue)
module Blocking_registration = Signaling.Blocking_of_polling (Dsm_registration)

let blocking_algorithms : (module Signaling.BLOCKING) list =
  [ (module Blocking_cc_flag);
    (module Blocking_registration);
    (module Blocking_queue);
    (module Dsm_leader) ]

let config_for_blocking ~n =
  Signaling.config ~n
    ~waiters:(List.init (n - 1) (fun i -> i + 1))
    ~signalers:[ 0 ]

let run_or_blocks (module A : Signaling.POLLING) ~model ~cfg ?active_waiters () =
  (* A bounded fuel keeps "this algorithm blocks" detection cheap; the
     shipped algorithms' calls finish in far fewer steps. *)
  match
    Scenario.run_phased (module A) ~model ~cfg ?active_waiters ~fuel:100_000 ()
  with
  | o -> Ok o
  | exception Failure msg when msg = "Sim.run_to_idle: out of fuel" ->
    Error "blocks"
  | exception Failure _ -> Error "failed"
