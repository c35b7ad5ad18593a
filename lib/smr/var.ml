(* Typed handles over shared memory cells, and the allocation context that
   assigns addresses, DSM homes and initial values.

   In the DSM model every variable lives in exactly one memory module
   (paper, Sec. 1-2).  A module either belongs to a process ([Module i]) or is
   a detached "shared" module remote to every process ([Shared]); the latter
   models globally allocated cells such as the counter of a shared queue.  In
   the CC model homes are irrelevant: any cell can be cached anywhere.

   Layouts are dense: addresses are allocated sequentially from 0, so the
   frozen layout stores homes and initial values as flat int arrays indexed
   by address — an O(1) array read on the cost-model hot path, and ~2 words
   per cell instead of ~10 per map node.  Debug names are NOT materialized
   per cell: a million-element vector would otherwise pay a [Printf] and a
   string per element up front.  Instead the layout keeps one naming segment
   per allocation call and renders "V[i]" on demand. *)

type home = Module of Op.pid | Shared

let pp_home ppf = function
  | Module i -> Fmt.pf ppf "module(p%d)" i
  | Shared -> Fmt.string ppf "shared"

(* Homes packed into an int: [Shared] is -1, [Module i] is [i]. *)
let home_code = function Shared -> -1 | Module i -> i
let home_of_code c = if c < 0 then Shared else Module c

(* One naming segment per allocation call: cells [s_base, s_base + s_len),
   cell [s_base + i] named [segment_name s i].  The layout keeps every
   segment for {!layout_name}; the vec of the same call holds the very
   same record, so a handle's {!name} is the layout's by construction. *)
type segment = { s_base : Op.addr; s_len : int; s_name : string; s_indexed : bool }

let segment_name s i =
  if s.s_indexed then Printf.sprintf "%s[%d]" s.s_name i else s.s_name

(* How much a reader may know of a range's decoding without calling it: a
   flag ({!Ctx.bool}, {!Ctx.bool_vec}) decodes [v <> 0], so a read of one
   can answer with a shared constant instead of building a closure. *)
type 'a decoding = Flag : bool decoding | Decoder : 'a decoding

(* A contiguous range of cells sharing one segment and encoding.  Unlike
   ['a t array] (which materializes one record per element), a vec is O(1)
   space regardless of length: element handles are minted on demand by
   {!vec_get}.  This is what lets algorithms with per-process state (queues,
   flag vectors) instantiate at k = 10^6.  A scalar cell is a one-element
   range whose segment is not indexed. *)
type 'a vec = {
  v_seg : segment;
  v_home : int -> home;
  v_encode : 'a -> Op.value;
  v_decode : Op.value -> 'a;
  v_decoding : 'a decoding;
}

(* A handle is its address plus the range it was minted from: name, home
   and encoding are read from (or rendered out of) what the range shares,
   so minting one — once per write in a broadcast Signal() — allocates
   this two-field record and nothing else. *)
type 'a t = { addr : Op.addr; vec : 'a vec }

let addr v = v.addr
let name { addr; vec } = segment_name vec.v_seg (addr - vec.v_seg.s_base)
let home { addr; vec } = vec.v_home (addr - vec.v_seg.s_base)
let encode v x = v.vec.v_encode x
let decode v x = v.vec.v_decode x
let decoding v = v.vec.v_decoding

let vec_len v = v.v_seg.s_len

let vec_addr v i =
  let s = v.v_seg in
  if i < 0 || i >= s.s_len then
    invalid_arg
      (Printf.sprintf "Var.vec_addr: index %d out of bounds for %s[0..%d)" i
         s.s_name s.s_len)
  else s.s_base + i

let vec_get v i = { addr = vec_addr v i; vec = v }

type layout = {
  size : int;
  homes : int array; (* home_code per address *)
  inits : Op.value array;
  segments : segment array; (* sorted by s_base, non-overlapping *)
}

let layout_home layout a =
  if a >= 0 && a < layout.size then home_of_code (Array.unsafe_get layout.homes a)
  else Shared

let layout_init layout a =
  if a >= 0 && a < layout.size then Array.unsafe_get layout.inits a else 0

(* Raw code accessors for the flat engine: one bounds check, no variant
   allocation.  [layout_home_code l a] is [home_code (layout_home l a)]. *)
let layout_home_code layout a =
  if a >= 0 && a < layout.size then Array.unsafe_get layout.homes a else -1

let layout_name layout a =
  if a < 0 || a >= layout.size then Printf.sprintf "@%d" a
  else begin
    (* Binary search for the segment holding [a]. *)
    let lo = ref 0 and hi = ref (Array.length layout.segments - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s = layout.segments.(mid) in
      if a < s.s_base then hi := mid - 1
      else if a >= s.s_base + s.s_len then lo := mid + 1
      else found := Some (segment_name s (a - s.s_base))
    done;
    match !found with Some n -> n | None -> Printf.sprintf "@%d" a
  end

let layout_size layout = layout.size

let layout_addrs layout = List.init layout.size Fun.id

module Ctx = struct
  type ctx = {
    mutable next : Op.addr;
    mutable homes : int array; (* capacity-doubled; [0, next) is live *)
    mutable inits : Op.value array;
    mutable segs_rev : segment list;
    mutable nsegs : int;
  }

  type nonrec 'a t = 'a t
  type nonrec 'a vec = 'a vec

  let create () =
    { next = 0;
      homes = Array.make 16 (-1);
      inits = Array.make 16 0;
      segs_rev = [];
      nsegs = 0 }

  let reserve ctx extra =
    let needed = ctx.next + extra in
    if needed > Array.length ctx.homes then begin
      let cap = max needed (2 * Array.length ctx.homes) in
      let homes = Array.make cap (-1) in
      Array.blit ctx.homes 0 homes 0 ctx.next;
      let inits = Array.make cap 0 in
      Array.blit ctx.inits 0 inits 0 ctx.next;
      ctx.homes <- homes;
      ctx.inits <- inits
    end

  let push_seg ctx s =
    ctx.segs_rev <- s :: ctx.segs_rev;
    ctx.nsegs <- ctx.nsegs + 1

  let alloc_as decoding ctx ~name ~home ~encode ~decode init =
    let addr = ctx.next in
    reserve ctx 1;
    ctx.next <- addr + 1;
    ctx.homes.(addr) <- home_code home;
    ctx.inits.(addr) <- encode init;
    let seg = { s_base = addr; s_len = 1; s_name = name; s_indexed = false } in
    push_seg ctx seg;
    { addr;
      vec =
        { v_seg = seg; v_home = (fun _ -> home); v_encode = encode;
          v_decode = decode; v_decoding = decoding } }

  let alloc ctx ~name ~home ~encode ~decode init =
    alloc_as Decoder ctx ~name ~home ~encode ~decode init

  let int ctx ~name ~home init =
    alloc ctx ~name ~home ~encode:Fun.id ~decode:Fun.id init

  let encode_flag b = if b then 1 else 0
  let decode_flag v = v <> 0

  let bool ctx ~name ~home init =
    alloc_as Flag ctx ~name ~home ~encode:encode_flag ~decode:decode_flag init

  (* Process IDs with a distinguished NIL, as in the single-waiter algorithm
     of Sec. 7 ("W (process ID, initially NIL)").  NIL is encoded as -1. *)
  let pid_opt ctx ~name ~home init =
    let encode = function None -> -1 | Some p -> p in
    let decode v = if v < 0 then None else Some v in
    alloc ctx ~name ~home ~encode ~decode init

  (* Range allocation: one segment, one home/init fill loop, zero
     per-element records. *)
  let alloc_vec_as decoding ctx ~name ~home ~encode ~decode n init =
    if n < 0 then invalid_arg "Var.Ctx.alloc_vec: negative length";
    let base = ctx.next in
    reserve ctx n;
    ctx.next <- base + n;
    for i = 0 to n - 1 do
      ctx.homes.(base + i) <- home_code (home i);
      ctx.inits.(base + i) <- encode (init i)
    done;
    let seg = { s_base = base; s_len = n; s_name = name; s_indexed = true } in
    push_seg ctx seg;
    { v_seg = seg; v_home = home; v_encode = encode; v_decode = decode;
      v_decoding = decoding }

  let alloc_vec ctx ~name ~home ~encode ~decode n init =
    alloc_vec_as Decoder ctx ~name ~home ~encode ~decode n init

  let int_vec ctx ~name ~home n init =
    alloc_vec ctx ~name ~home ~encode:Fun.id ~decode:Fun.id n init

  let bool_vec ctx ~name ~home n init =
    alloc_vec_as Flag ctx ~name ~home ~encode:encode_flag ~decode:decode_flag n
      init

  let pid_opt_vec ctx ~name ~home n init =
    let encode = function None -> -1 | Some p -> p in
    let decode v = if v < 0 then None else Some v in
    alloc_vec ctx ~name ~home ~encode ~decode n init

  (* The array forms materialize one handle per element; callers that scale
     with the process count should hold the vec and mint handles on
     demand. *)
  let int_array ctx ~name ~home n init =
    let v = int_vec ctx ~name ~home n init in
    Array.init n (vec_get v)

  let bool_array ctx ~name ~home n init =
    let v = bool_vec ctx ~name ~home n init in
    Array.init n (vec_get v)

  let freeze ctx =
    let segments =
      Array.make ctx.nsegs { s_base = 0; s_len = 0; s_name = ""; s_indexed = false }
    in
    let rec fill i = function
      | [] -> ()
      | s :: rest ->
        segments.(i) <- s;
        fill (i - 1) rest
    in
    fill (ctx.nsegs - 1) ctx.segs_rev;
    { size = ctx.next;
      homes = Array.sub ctx.homes 0 ctx.next;
      inits = Array.sub ctx.inits 0 ctx.next;
      segments }
end
