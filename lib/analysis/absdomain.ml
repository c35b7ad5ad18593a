(* The cache-state abstract domain behind the amortized lint.

   An abstract state is the set of cells the analyzed process holds a
   valid copy of.  Holding more cells is knowing more; join intersects, so
   merging control-flow paths can only forget cache contents, never invent
   them.  The empty set is the top element: the sound starting point of
   every fixpoint iteration.

   The transfer function is [Smr.Cc.decide], the protocol table both
   simulation engines obey, billed at its worst case: an access costs one
   RMR iff some protocol in [Cc.protocols], under either outcome of the
   operation (it wrote or it did not), makes it a remote reference.  A
   bound proved here therefore holds under every protocol, which is what
   the claim vocabulary promises.  Write-back ownership is never claimed
   ([~owned:false]): under write-back even a failed comparison by another
   process takes the line away (the counterexample in docs/MODEL.md), and
   the analysis does not model other processes.  So reads bill iff the
   cell is not held, and every mutation bills.

   Whatever [decide] answers, the access leaves the process holding the
   cell.  A copy is lost only to another process's non-read-only
   operation, which {!Amortized} charges as a refill.

   The model is the ideal (unbounded) cache of the paper's Section 8;
   capacity eviction (E12) is out of scope and documented as a caveat. *)

open Smr
module Cells = Set.Make (Int)

type state = Cells.t

let top = Cells.empty
let join = Cells.inter
let equal = Cells.equal
let leq st1 st2 = Cells.subset st2 st1

let billed inv ~has_copy =
  List.exists
    (fun protocol ->
      List.exists
        (fun wrote ->
          Cc.is_rmr (Cc.decide protocol inv ~wrote ~has_copy ~owned:false))
        [ false; true ])
    Cc.protocols

let transfer st inv =
  let a = Op.addr_of inv in
  ((if billed inv ~has_copy:(Cells.mem a st) then 1 else 0), Cells.add a st)
