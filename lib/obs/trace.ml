(* The append-only event sink; see the .mli.

   Emission is O(1) (a cons) and every emit also folds the event into the
   embedded metrics registry, so metrics are always consistent with the
   stream and never need a second pass. *)

type t = {
  mutable events_rev : Event.t list;
  mutable length : int;
  metrics : Metrics.t;
}

let create () = { events_rev = []; length = 0; metrics = Metrics.create () }

let pid_label p = Printf.sprintf "p%d" p

let rmr_buckets = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]

let fold_metrics m (ev : Event.t) =
  match ev with
  | Event.Op_step e ->
    Metrics.incr m "steps_total" ~labels:[ ("pid", pid_label e.pid) ];
    if e.rmr then
      Metrics.incr m "rmr_total"
        ~labels:
          [ ("model", e.model); ("pid", pid_label e.pid);
            ("addr_home", Event.home_label e.home) ];
    if e.messages > 0 then
      Metrics.incr m ~by:e.messages "messages_total"
        ~labels:[ ("model", e.model) ]
  | Event.Call_begin _ -> ()
  | Event.Call_end e ->
    Metrics.incr m "calls_total"
      ~labels:[ ("label", e.label); ("pid", pid_label e.pid) ];
    Metrics.observe m ~buckets:rmr_buckets "call_rmrs"
      ~labels:[ ("label", e.label) ]
      (float_of_int e.rmrs)
  | Event.Call_crash e ->
    Metrics.incr m "crashes_total" ~labels:[ ("label", e.label) ]
  | Event.Proc_exit _ -> ()
  | Event.Cache e ->
    if e.messages > 0 then
      Metrics.incr m ~by:e.messages "coherence_messages_total"
        ~labels:[ ("interconnect", e.interconnect); ("action", e.action) ];
    Metrics.incr m "cache_events_total"
      ~labels:[ ("protocol", e.protocol); ("action", e.action) ]
  | Event.Adversary e ->
    Metrics.incr m "adversary_decisions_total"
      ~labels:[ ("decision", e.decision) ]

let emit t ev =
  t.events_rev <- ev :: t.events_rev;
  t.length <- t.length + 1;
  fold_metrics t.metrics ev

let events t = List.rev t.events_rev

let length t = t.length

let metrics t = t.metrics
