(* Chrome trace_event sink (the JSON loaded by chrome://tracing and
   Perfetto).  Logical simulator ticks are reported as microseconds, so
   the viewer's time axis *is* the event clock — wall time never appears
   and the file is byte-identical across hosts.

   Track layout (chrome "pid" = track group, "tid" = lane):
     pid 0 "machine"    tid = simulator pid (op slices, call B/E, instants)
     pid 1 "adversary"  tid 0 (decision instants)
     pid 4 "cells"      tid = cell address (coherence-traffic instants)
   Metadata (ph "M") names only the tracks that actually appear. *)

let pid_machine = 0
let pid_adversary = 1
let pid_cells = 4

let i = string_of_int

let meta ~pid ~tid ~kind ~name =
  Json_lite.obj
    [ ("ph", Json_lite.str "M"); ("pid", i pid); ("tid", i tid);
      ("name", Json_lite.str kind);
      ("args", Json_lite.obj [ ("name", Json_lite.str name) ]) ]

(* One trace_event object.  [args] fields are pre-rendered values. *)
let ev_obj ~name ~cat ~ph ~pid ~tid ~ts ?dur ?(args = []) () =
  let open Json_lite in
  let fields =
    [ ("name", str name); ("cat", str cat); ("ph", str ph); ("pid", i pid);
      ("tid", i tid); ("ts", i ts) ]
  in
  let fields =
    match dur with None -> fields | Some d -> fields @ [ ("dur", i d) ]
  in
  let fields = match args with [] -> fields | a -> fields @ [ ("args", obj a) ] in
  obj fields

(* Each event renders to one or more trace_event objects, already joined
   by commas (a crash closes its open call slice *and* drops a marker). *)
let objects (ev : Event.t) =
  let open Json_lite in
  match ev with
  | Event.Op_step e ->
    [ ev_obj
        ~name:(e.kind ^ " " ^ e.var)
        ~cat:"op" ~ph:"X" ~pid:pid_machine ~tid:e.pid ~ts:e.t ~dur:1
        ~args:
          [ ("addr", i e.addr); ("home", str (Event.home_label e.home));
            ("response", i e.response); ("wrote", bool e.wrote);
            ("rmr", bool e.rmr); ("messages", i e.messages);
            ("model", str e.model) ]
        () ]
  | Event.Call_begin e ->
    [ ev_obj ~name:e.label ~cat:"call" ~ph:"B" ~pid:pid_machine ~tid:e.pid
        ~ts:e.t
        ~args:[ ("seq", i e.seq) ]
        () ]
  | Event.Call_end e ->
    [ ev_obj ~name:e.label ~cat:"call" ~ph:"E" ~pid:pid_machine ~tid:e.pid
        ~ts:e.t
        ~args:[ ("result", i e.result); ("rmrs", i e.rmrs); ("steps", i e.steps) ]
        () ]
  | Event.Call_crash e ->
    (* Close the open call slice, then mark the crash point. *)
    [ ev_obj ~name:e.label ~cat:"call" ~ph:"E" ~pid:pid_machine ~tid:e.pid
        ~ts:e.t
        ~args:[ ("crashed", bool true); ("rmrs", i e.rmrs); ("steps", i e.steps) ]
        ();
      ev_obj ~name:("crash " ^ e.label) ~cat:"call" ~ph:"i" ~pid:pid_machine
        ~tid:e.pid ~ts:e.t () ]
  | Event.Proc_exit e ->
    [ ev_obj
        ~name:(if e.crashed then "exit (crashed)" else "exit")
        ~cat:"proc" ~ph:"i" ~pid:pid_machine ~tid:e.pid ~ts:e.t () ]
  | Event.Cache e ->
    [ ev_obj ~name:e.action ~cat:"cache" ~ph:"i" ~pid:pid_machine ~tid:e.pid
        ~ts:e.t
        ~args:
          [ ("addr", i e.addr); ("copies", i e.copies);
            ("messages", i e.messages); ("protocol", str e.protocol);
            ("interconnect", str e.interconnect) ]
        () ]
  | Event.Adversary e ->
    [ ev_obj ~name:e.decision ~cat:"adversary" ~ph:"i" ~pid:pid_adversary
        ~tid:0 ~ts:e.t
        ~args:[ ("pid", i e.pid); ("detail", str e.detail) ]
        () ]

let render ev = String.concat "," (objects ev)

module Iset = Set.Make (Int)

(* Name only the tracks that appear, in sorted lane order. *)
let metadata events =
  let machine, adversary =
    List.fold_left
      (fun (m, a) (ev : Event.t) ->
        match ev with
        | Event.Op_step e -> (Iset.add e.pid m, a)
        | Event.Call_begin e -> (Iset.add e.pid m, a)
        | Event.Call_end e -> (Iset.add e.pid m, a)
        | Event.Call_crash e -> (Iset.add e.pid m, a)
        | Event.Proc_exit e -> (Iset.add e.pid m, a)
        | Event.Cache e -> (Iset.add e.pid m, a)
        | Event.Adversary _ -> (m, true))
      (Iset.empty, false) events
  in
  let machine_meta =
    if Iset.is_empty machine then []
    else
      meta ~pid:pid_machine ~tid:0 ~kind:"process_name" ~name:"machine"
      :: List.map
           (fun p ->
             meta ~pid:pid_machine ~tid:p ~kind:"thread_name"
               ~name:(Printf.sprintf "p%d" p))
           (Iset.elements machine)
  in
  let adversary_meta =
    if adversary then
      [ meta ~pid:pid_adversary ~tid:0 ~kind:"process_name" ~name:"adversary" ]
    else []
  in
  machine_meta @ adversary_meta

let to_string events =
  let head = metadata events in
  let body = List.filter (fun s -> s <> "") (List.map render events) in
  "{\"traceEvents\":[" ^ String.concat "," (head @ body) ^ "]}\n"

(* --- the cells track group ---

   The flat engines have no {!Event.t} stream (that is the point of the
   counter planes), but the profiler can still export their coherence
   traffic: [Flat_sim]'s [on_cache] hook carries (tick, pid, addr, action,
   messages) tuples, which render here as one instant per transaction on a
   lane per *cell* — the transposed view of the machine track group,
   built for eyeballing cc-flag's single hot cell against dsm-broadcast's
   smear. *)

type cell_event = {
  ce_t : int;
  ce_pid : int;
  ce_addr : int;
  ce_action : string;
  ce_messages : int;
}

let render_cell (e : cell_event) =
  ev_obj ~name:e.ce_action ~cat:"cell" ~ph:"i" ~pid:pid_cells ~tid:e.ce_addr
    ~ts:e.ce_t
    ~args:[ ("pid", i e.ce_pid); ("messages", i e.ce_messages) ]
    ()

let cells_to_string ?(cell_name = Printf.sprintf "cell %d") events =
  let addrs =
    List.fold_left (fun s e -> Iset.add e.ce_addr s) Iset.empty events
  in
  let head =
    if Iset.is_empty addrs then []
    else
      meta ~pid:pid_cells ~tid:0 ~kind:"process_name" ~name:"cells"
      :: List.map
           (fun a ->
             meta ~pid:pid_cells ~tid:a ~kind:"thread_name" ~name:(cell_name a))
           (Iset.elements addrs)
  in
  let body = List.map render_cell events in
  "{\"traceEvents\":[" ^ String.concat "," (head @ body) ^ "]}\n"
