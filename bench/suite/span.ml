(* In-memory span recorder for the traced run.

   Coarse spans (one per workload, its set-up steps and the main call) are
   recorded individually, each with its host-time start, duration, parent
   and the minor words allocated inside it.  Hot callbacks — program
   continuations, the explorer's property, script and commute callbacks,
   [Workload.Driver]'s program builders — fire millions of times, so they are
   aggregated into whichever span is open when they fire: a call count and
   a total time per callback kind.  Everything stays in memory and is
   written once, at the end, as Chrome trace-event JSON. *)

type kind = Continue | Polling_ok | Script | Commute | Program_build

let kinds = [ Continue; Polling_ok; Script; Commute; Program_build ]

let kind_index = function
  | Continue -> 0
  | Polling_ok -> 1
  | Script -> 2
  | Commute -> 3
  | Program_build -> 4

(* The per-layer metric stem each callback kind reports under. *)
let kind_name = function
  | Continue -> "program.continue"
  | Polling_ok -> "signaling.polling_ok"
  | Script -> "explore.script"
  | Commute -> "op.commute"
  | Program_build -> "driver.program_build"

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_ns : int;
  mutable dur_ns : int;
  mutable minor_words : float;
  mutable major_collections : int;
  calls : int array;  (** per callback kind *)
  cb_ns : int array;
}

type t = {
  mutable spans : span list;  (** closed spans, most recent first *)
  mutable stack : span list;
  mutable next_id : int;
}

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())

let make_span ~id ~parent name =
  { id; parent; name; start_ns = now_ns (); dur_ns = 0; minor_words = 0.0;
    major_collections = 0;
    calls = Array.make (List.length kinds) 0;
    cb_ns = Array.make (List.length kinds) 0 }

(* Callbacks firing outside any open span land here and are dropped. *)
let nowhere = make_span ~id:(-1) ~parent:(-1) "nowhere"
let current = ref nowhere

let create () = { spans = []; stack = []; next_id = 0 }

(* [with_ t name f] runs [f] inside a span named [name]; with no recorder
   it is just [f ()]. *)
let with_ t name f =
  match t with
  | None -> f ()
  | Some t ->
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s = make_span ~id:t.next_id ~parent name in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    current := s;
    let w0 = Gc.minor_words () in
    let c0 = (Gc.quick_stat ()).Gc.major_collections in
    let close () =
      s.dur_ns <- now_ns () - s.start_ns;
      s.minor_words <- Gc.minor_words () -. w0;
      s.major_collections <- (Gc.quick_stat ()).Gc.major_collections - c0;
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans;
      current := (match t.stack with p :: _ -> p | [] -> nowhere)
    in
    Fun.protect ~finally:close f

(* One aggregated call of a hot callback. *)
let timed kind f x =
  let s = !current in
  let t0 = now_ns () in
  let r = f x in
  let i = kind_index kind in
  s.cb_ns.(i) <- s.cb_ns.(i) + (now_ns () - t0);
  s.calls.(i) <- s.calls.(i) + 1;
  r

(* A program whose every continuation is timed as a [Continue] call. *)
let rec wrap_program : 'a. 'a Smr.Program.t -> 'a Smr.Program.t = function
  | Smr.Program.Return _ as p -> p
  | Smr.Program.Step (inv, k) ->
    Smr.Program.Step (inv, fun v -> wrap_program (timed Continue k v))

let spans t = List.rev t.spans

let find t name = List.find (fun s -> s.name = name) t.spans

let children t s = List.filter (fun c -> c.parent = s.id) t.spans

let callback_calls s kind = s.calls.(kind_index kind)
let callback_s s kind = float_of_int s.cb_ns.(kind_index kind) *. 1e-9

(* Duration minus the child spans' and aggregated callbacks' time, less one
   clock read per aggregated call (each call's two reads straddle its
   boundaries, so about one read's cost lands outside the callback). *)
let self_s t ~clock_ns s =
  let child_ns = List.fold_left (fun acc c -> acc + c.dur_ns) 0 (children t s) in
  let cb_ns = Array.fold_left ( + ) 0 s.cb_ns in
  let calls = Array.fold_left ( + ) 0 s.calls in
  (float_of_int (s.dur_ns - child_ns - cb_ns) -. (float_of_int calls *. clock_ns))
  *. 1e-9

(* Chrome trace-event JSON: complete ("X") events on one track, times in
   microseconds from the first span's start; the aggregates ride in each
   event's args. *)
let to_chrome t ~clock_ns =
  let spans = spans t in
  let origin =
    List.fold_left (fun acc s -> min acc s.start_ns) max_int spans
  in
  let us ns = Json.Num (float_of_int ns /. 1000.0) in
  let event s =
    let aggregates =
      List.concat_map
        (fun k ->
          if callback_calls s k = 0 then []
          else
            [ (kind_name k ^ "_calls", Json.Num (float_of_int (callback_calls s k)));
              (kind_name k ^ "_s", Json.Num (callback_s s k)) ])
        kinds
    in
    Json.Obj
      [ ("name", Json.Str s.name); ("ph", Json.Str "X");
        ("ts", us (s.start_ns - origin)); ("dur", us s.dur_ns);
        ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
        ( "args",
          Json.Obj
            ([ ("id", Json.Num (float_of_int s.id));
               ("parent", Json.Num (float_of_int s.parent));
               ("minor_words", Json.Num s.minor_words);
               ("major_collections", Json.Num (float_of_int s.major_collections));
               ("self_s", Json.Num (self_s t ~clock_ns s)) ]
            @ aggregates) ) ]
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.Arr (List.map event spans));
         ("displayTimeUnit", Json.Str "ms") ])
