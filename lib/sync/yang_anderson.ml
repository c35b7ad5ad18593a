(* Yang and Anderson's local-spin tournament lock [30].

   N-process mutual exclusion from reads and writes only: processes climb a
   binary arbitration tree, resolving each internal node with a two-process
   protocol in which every busy-wait is on a spin variable homed in the
   waiting process's own module.  A passage costs Θ(log N) RMRs in both the
   CC and DSM models — the tight bound for reads and writes (Sec. 3).

   The two-process node protocol follows the presentation in Anderson, Kim &
   Herman's survey [3]: C[v][side] announces the contender, T[v] breaks
   ties, and the loser waits on its own per-level spin variable, first for a
   wake-up hint (>= 1) and then, if it still holds the tie-breaker, for the
   explicit hand-off (>= 2). *)

open Smr
open Program.Syntax

let name = "yang-anderson"

let primitives = [ Op.Reads_writes ]

type t = {
  levels : int; (* 0 when n = 1: no arbitration needed *)
  c : Op.pid option Var.t array array; (* c.(node).(side), heap-indexed *)
  tie : Op.pid option Var.t array; (* tie.(node) *)
  spin : int Var.t array array; (* spin.(pid).(level), homed at pid *)
}

let levels_for n =
  let rec go l = if 1 lsl l >= n then l else go (l + 1) in
  go 0

let create ctx ~n =
  let levels = levels_for n in
  let nodes = 1 lsl levels in
  (* nodes 1 .. 2^levels - 1 are real; index 0 is padding *)
  { levels;
    c =
      Array.init nodes (fun v ->
          Array.init 2 (fun s ->
              Var.Ctx.pid_opt ctx
                ~name:(Printf.sprintf "ya.c[%d][%d]" v s)
                ~home:Var.Shared None));
    tie =
      Array.init nodes (fun v ->
          Var.Ctx.pid_opt ctx
            ~name:(Printf.sprintf "ya.t[%d]" v)
            ~home:Var.Shared None);
    spin =
      Array.init n (fun p ->
          Array.init (levels + 1) (fun l ->
              Var.Ctx.int ctx
                ~name:(Printf.sprintf "ya.spin[%d][%d]" p l)
                ~home:(Var.Module p) 0)) }

(* Path helpers: process p's leaf is (2^levels + p); the node contested at
   level l (1-based, root = level [levels]) is the leaf shifted right l
   times, entered from side (leaf >> (l-1)) land 1. *)
let node_at t p ~level = ((1 lsl t.levels) + p) lsr level

let side_at t p ~level = (((1 lsl t.levels) + p) lsr (level - 1)) land 1

let entry2 t p ~level =
  let v = node_at t p ~level and s = side_at t p ~level in
  let my_spin = t.spin.(p).(level) in
  let* () = Program.write t.c.(v).(s) (Some p) in
  let* () = Program.write t.tie.(v) (Some p) in
  let* () = Program.write my_spin 0 in
  let* rival = Program.read t.c.(v).(1 - s) in
  match rival with
  | None -> Program.return () (* uncontested *)
  | Some q ->
    let* holder = Program.read t.tie.(v) in
    if holder <> Some p then Program.return () (* rival yielded the tie *)
    else
      let* rival_spin = Program.read t.spin.(q).(level) in
      let* () =
        Program.when_ (rival_spin = 0) (Program.write t.spin.(q).(level) 1)
      in
      let* () = Program.await my_spin (fun x -> x >= 1) in
      let* holder = Program.read t.tie.(v) in
      if holder = Some p then Program.await my_spin (fun x -> x >= 2)
      else Program.return ()

let exit2 t p ~level =
  let v = node_at t p ~level and s = side_at t p ~level in
  let* () = Program.write t.c.(v).(s) None in
  let* holder = Program.read t.tie.(v) in
  match holder with
  | Some q when q <> p -> Program.write t.spin.(q).(level) 2
  | Some _ | None -> Program.return ()

let acquire t p =
  Program.for_ 1 t.levels (fun level -> entry2 t p ~level)

let release t p =
  (* Exit top-down: the root hand-off happens first. *)
  let rec go level =
    if level < 1 then Program.return ()
    else
      let* () = exit2 t p ~level in
      go (level - 1)
  in
  go t.levels

(* Lint claims: reads/writes only and local-spin — every busy-wait targets
   spin[p][level] homed at the waiting process — with Θ(log n) RMRs per
   passage.  The per-level constants below are worst cases over the
   extracted CFG (7 on entry: name write, tie write, rival read, rival
   spin read + reset, and the two tie re-reads around the waits; 3 on
   exit: name clear, tie read, successor grant).  At n ≤ 2 each c[v][s]
   port belongs to one leaf process; deeper trees share ports between
   subtree members, so the single-writer claim is only made for n ≤ 2. *)
let claims ~n =
  let levels = max 1 (levels_for n) in
  Analysis.Claims.
    { single_writer = (if n <= 2 then [ "ya.c" ] else []);
      calls =
        [ ("acquire", { spin = Local_spin; dsm_rmrs = Rmr (7 * levels); cc_amortized = Amortized { steady = Rmr (5 * levels); refills = 4 * levels } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr (3 * levels); cc_amortized = Amortized { steady = Rmr (2 * levels); refills = levels } }) ] }
