(** Typed shared variables and their allocation.

    A variable is a typed view of one integer memory cell together with its
    DSM {!home}.  Algorithms declare their variables through a {!Ctx.ctx}
    before the simulation starts; freezing the context produces the {!layout}
    the simulator and cost models consume. *)

(** Where a cell lives in the DSM model: in the memory module of one process,
    or in a detached module remote to every process. *)
type home = Module of Op.pid | Shared

val pp_home : home Fmt.t

type 'a t
(** A typed handle on one shared cell. *)

val addr : 'a t -> Op.addr

val name : 'a t -> string
(** Debug name, rendered on demand (["V[i]"] for a vec element): what
    {!layout_name} gives for the handle's address in any layout frozen
    after the allocation. *)

val home : 'a t -> home
(** DSM home, computed on demand: what {!layout_home} gives for the
    handle's address in any layout frozen after the allocation. *)

val encode : 'a t -> 'a -> Op.value
(** Encode a typed value into the cell representation. *)

val decode : 'a t -> Op.value -> 'a
(** Decode the cell representation; inverse of {!encode} on valid contents. *)

(** What a reader may know of {!decode} without calling it. *)
type 'a decoding =
  | Flag : bool decoding
      (** a {!Ctx.bool} or {!Ctx.bool_vec} cell: [decode v] is [v <> 0] *)
  | Decoder : 'a decoding  (** any other cell: only {!decode} says *)

val decoding : 'a t -> 'a decoding

type 'a vec
(** A contiguous range of cells sharing one base name and encoding — O(1)
    space regardless of length, unlike ['a t array] which materializes one
    handle per element.  The representation algorithms with per-process
    state must use to instantiate at k = 10^6. *)

val vec_len : 'a vec -> int

val vec_addr : 'a vec -> int -> Op.addr
(** Address of element [i]; raises [Invalid_argument] out of bounds. *)

val vec_get : 'a vec -> int -> 'a t
(** Mint the handle of element [i] on demand.  Allocates one three-word
    record (header, address, shared range) and nothing else: the name and
    home are computed only when {!name} or {!home} asks. *)

type layout
(** Frozen allocation: addresses with homes, initial values and debug names.
    Dense: addresses run [0, size); homes and inits are flat array reads. *)

val layout_home : layout -> Op.addr -> home
val layout_init : layout -> Op.addr -> Op.value
val layout_name : layout -> Op.addr -> string

val layout_home_code : layout -> Op.addr -> int
(** [layout_home_code l a] is the home of [a] packed into an int: -1 for
    [Shared], the owning pid for [Module _].  The allocation-free accessor
    the flat engine's DSM billing uses. *)

val layout_size : layout -> int
(** Number of allocated cells. *)

val layout_addrs : layout -> Op.addr list
(** All allocated addresses, in allocation order. *)

(** Allocation context. *)
module Ctx : sig
  type ctx

  type nonrec 'a t = 'a t

  type nonrec 'a vec = 'a vec

  val create : unit -> ctx

  val alloc :
    ctx ->
    name:string ->
    home:home ->
    encode:('a -> Op.value) ->
    decode:(Op.value -> 'a) ->
    'a ->
    'a t
  (** Allocate a cell with a custom encoding and initial (typed) value. *)

  val int : ctx -> name:string -> home:home -> int -> int t

  val bool : ctx -> name:string -> home:home -> bool -> bool t

  val pid_opt : ctx -> name:string -> home:home -> Op.pid option -> Op.pid option t
  (** A process-ID cell with a distinguished NIL ([None]), as used by the
      single-waiter algorithm of Section 7. *)

  val int_array :
    ctx -> name:string -> home:(int -> home) -> int -> (int -> int) -> int t array
  (** [int_array ctx ~name ~home n init] allocates [n] cells; cell [i] is
      homed at [home i] and starts at [init i].  The per-index homing is how
      algorithms express "V[i] is local to process p_i" (Sec. 7). *)

  val bool_array :
    ctx -> name:string -> home:(int -> home) -> int -> (int -> bool) -> bool t array

  val alloc_vec :
    ctx ->
    name:string ->
    home:(int -> home) ->
    encode:('a -> Op.value) ->
    decode:(Op.value -> 'a) ->
    int ->
    (int -> 'a) ->
    'a vec
  (** [alloc_vec ctx ~name ~home ~encode ~decode n init] allocates [n]
      contiguous cells as one O(1)-space vector; cell [i] is homed at
      [home i], starts at [init i], and is named ["name[i]"] on demand. *)

  val int_vec :
    ctx -> name:string -> home:(int -> home) -> int -> (int -> int) -> int vec

  val bool_vec :
    ctx -> name:string -> home:(int -> home) -> int -> (int -> bool) -> bool vec

  val pid_opt_vec :
    ctx ->
    name:string ->
    home:(int -> home) ->
    int ->
    (int -> Op.pid option) ->
    Op.pid option vec

  val freeze : ctx -> layout
  (** Freeze the context into the immutable layout used by the simulator.
      Allocating after freezing is allowed but the new cells are invisible to
      layouts frozen earlier. *)
end
