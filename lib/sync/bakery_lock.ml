(* Lamport's bakery algorithm [24]: first-come-first-served mutual
   exclusion from reads and writes only.

   Each contender takes a ticket one larger than every ticket it can see
   and waits until no smaller (ticket, id) pair is active.  The doorway
   (choosing + ticket scan) gives FCFS: whoever completes the doorway
   first enters first.  The cost is Θ(N) reads per passage even without
   contention — the paper's Section 3 cites the FCFS line of work
   ([24, 3, 7]) whose RMR-efficient successors fix exactly this; bakery is
   the baseline they improve on, and its scans are remote in both models
   (E7 shows it growing everywhere). *)

open Smr
open Program.Syntax

let name = "bakery"

let primitives = [ Op.Reads_writes ]

type t = {
  n : int;
  choosing : bool Var.t array; (* choosing.(i) homed at module i *)
  number : int Var.t array; (* number.(i) homed at module i; 0 = not in line *)
}

let create ctx ~n =
  { n;
    choosing =
      Var.Ctx.bool_array ctx ~name:"bakery.choosing"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> false);
    number =
      Var.Ctx.int_array ctx ~name:"bakery.number"
        ~home:(fun i -> Var.Module i)
        n
        (fun _ -> 0) }

(* The lexicographic priority order on (ticket, id). *)
let precedes (t1, p1) (t2, p2) = t1 < t2 || (t1 = t2 && p1 < p2)

let acquire t p =
  (* Doorway: announce, scan every ticket, take the maximum plus one. *)
  let* () = Program.write t.choosing.(p) true in
  let rec scan_max i acc =
    if i >= t.n then Program.return acc
    else
      let* ni = Program.read t.number.(i) in
      scan_max (i + 1) (max acc ni)
  in
  let* highest = scan_max 0 0 in
  let* () = Program.write t.number.(p) (highest + 1) in
  let* () = Program.write t.choosing.(p) false in
  (* Wait section: for each other process, wait out its doorway, then wait
     until it either leaves the line or has lower priority. *)
  let rec wait_for i =
    if i >= t.n then Program.return ()
    else if i = p then wait_for (i + 1)
    else
      let* () = Program.await t.choosing.(i) not in
      let* () =
        Program.repeat_until
          (let* ni = Program.read t.number.(i) in
           if ni = 0 then Program.return true
           else
             let* np = Program.read t.number.(p) in
             Program.return (precedes (np, p) (ni, i)))
      in
      wait_for (i + 1)
  in
  wait_for 0

let release t p = Program.write t.number.(p) 0

(* Lint claims: reads/writes only (the FCFS baseline); the doorway and
   priority scans poll other processes' choosing/number cells, remote in
   DSM.  Each process alone writes its own choosing and number cells;
   release just retires the owned number cell (0 RMRs). *)
let claims ~n =
  Analysis.Claims.
    { single_writer = [ "bakery.choosing"; "bakery.number" ];
      calls =
        [ ("acquire", { spin = Remote_spin; dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Rmr n; refills = 2 * (n - 1) } });
          ("release", { spin = No_spin; dsm_rmrs = Rmr 0; cc_amortized = Amortized { steady = Rmr 1; refills = 0 } }) ] }
