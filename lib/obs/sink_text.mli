(** Text sink: one deterministic human-readable line per event,
    generalizing the vocabulary of [Smr.Timeline] to the full event
    schema (calls, cache traffic, adversary decisions). *)

val line : Event.t -> string
(** One event, no trailing newline. *)

val to_string : Event.t list -> string
(** Newline-terminated lines. *)
