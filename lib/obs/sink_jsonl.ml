(* JSONL sink: one event per line, fixed key order per event kind, so the
   stream is byte-stable and diffable (the golden fixtures rely on
   this). *)

let i = string_of_int

let line (ev : Event.t) =
  let open Json_lite in
  match ev with
  | Event.Op_step e ->
    obj
      [ ("ev", str "op"); ("t", i e.t); ("pid", i e.pid);
        ("kind", str e.kind); ("addr", i e.addr); ("var", str e.var);
        ("home", str (Event.home_label e.home)); ("response", i e.response);
        ("wrote", bool e.wrote); ("rmr", bool e.rmr);
        ("messages", i e.messages); ("model", str e.model);
        ("call_seq", i e.call_seq) ]
  | Event.Call_begin e ->
    obj
      [ ("ev", str "call-begin"); ("t", i e.t); ("pid", i e.pid);
        ("label", str e.label); ("seq", i e.seq) ]
  | Event.Call_end e ->
    obj
      [ ("ev", str "call-end"); ("t", i e.t); ("pid", i e.pid);
        ("label", str e.label); ("seq", i e.seq); ("result", i e.result);
        ("rmrs", i e.rmrs); ("steps", i e.steps) ]
  | Event.Call_crash e ->
    obj
      [ ("ev", str "call-crash"); ("t", i e.t); ("pid", i e.pid);
        ("label", str e.label); ("seq", i e.seq); ("rmrs", i e.rmrs);
        ("steps", i e.steps) ]
  | Event.Proc_exit e ->
    obj
      [ ("ev", str "proc-exit"); ("t", i e.t); ("pid", i e.pid);
        ("crashed", bool e.crashed) ]
  | Event.Cache e ->
    obj
      [ ("ev", str "cache"); ("t", i e.t); ("pid", i e.pid);
        ("addr", i e.addr); ("action", str e.action); ("copies", i e.copies);
        ("messages", i e.messages); ("protocol", str e.protocol);
        ("interconnect", str e.interconnect) ]
  | Event.Adversary e ->
    obj
      [ ("ev", str "adversary"); ("t", i e.t); ("decision", str e.decision);
        ("pid", i e.pid); ("detail", str e.detail) ]

let to_string events =
  String.concat "" (List.map (fun ev -> line ev ^ "\n") events)
