(** JSONL sink: one JSON object per line, one line per event, fixed key
    order — byte-stable, greppable, and `jq`-friendly. *)

val line : Event.t -> string
(** One event as a single JSON line (no trailing newline). *)

val to_string : Event.t list -> string
(** The whole stream, newline-terminated lines. *)
