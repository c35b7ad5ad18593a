(* Exhaustive small-scope verification: every interleaving of small
   signaling configurations satisfies Specification 4.1, and the explorer
   itself counts interleavings correctly. *)

open Smr
open Test_util
open Core

(* The spec as an exploration property. *)
let spec_ok calls = Signaling.check_polling calls = []

(* Build scripts for an algorithm instance: each waiter performs up to
   [polls] Poll() calls, stopping early once one returns true (the
   Section 4 history restriction); the signaler performs one Signal(). *)
let scripts_for (module A : Signaling.POLLING) ~n ~waiters ~polls =
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n ~waiters ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    (0, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 0) ])
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:polls
               ~until:(fun r -> r = 1)
               (Signaling.poll_label, inst.Signaling.i_poll w) ))
         waiters
  in
  (layout, scripts)

let explore (module A : Signaling.POLLING) ~n ~waiters ~polls =
  let layout, scripts = scripts_for (module A) ~n ~waiters ~polls in
  Explore.check ~layout ~model:(Cost_model.dsm layout) ~n ~scripts
    ~property:spec_ok ()

let check_no_violation name (r : Explore.result) =
  check_true (name ^ ": no violation") (r.Explore.violation = None);
  check_true (name ^ ": explored something") (r.Explore.histories > 0)

let test_count_basics () =
  (* With dedup and POR off, every leaf is one step-level interleaving.
     Two processes, one single-step call each: begin+step per process give
     2 moves each; interleavings of the 4 events with per-process order
     fixed = C(4,2) = 6. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let script p = Explore.of_list [ ("w", Program.step (Op.Write (Var.addr x, p))) ] in
  let r =
    Explore.check ~dedup:false ~por:false ~layout
      ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ~property:(fun _ -> true) ()
  in
  check_int "six interleavings" 6 r.Explore.histories

let test_count_respects_cap () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let script p =
    Explore.of_list
      (List.init 3 (fun i ->
           (Printf.sprintf "w%d" i, Program.step (Op.Write (Var.addr x, p)))))
  in
  let r =
    Explore.check ~max_histories:10 ~layout ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ~property:(fun _ -> true) ()
  in
  check_int "capped" 10 r.Explore.histories;
  check_false "reported incomplete" r.Explore.complete

let test_truncation_of_spin_loops () =
  (* A spinner that never sees its condition: every branch that keeps
     scheduling it truncates rather than hanging. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let spin = Program.map (fun () -> 0) (Program.await x (fun v -> v > 0)) in
  let r =
    Explore.check ~max_steps_per_history:20 ~layout
      ~model:(Cost_model.dsm layout) ~n:1
      ~scripts:[ (0, Explore.of_list [ ("spin", spin) ]) ]
      ~property:(fun _ -> true) ()
  in
  check_true "truncated branches reported" (r.Explore.truncated > 0);
  check_false "not complete" r.Explore.complete

let test_violation_reported () =
  (* A property that always fails is falsified on the first leaf. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let r =
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n:1
      ~scripts:
        [ (0, Explore.of_list [ ("w", Program.step (Op.Write (Var.addr x, 1))) ]) ]
      ~property:(fun _ -> false) ()
  in
  check_true "violation returned" (r.Explore.violation <> None)

(* --- exhaustive spec verification per algorithm --- *)

let test_cc_flag_exhaustive () =
  let r = explore (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "cc-flag" r;
  check_true "fully enumerated" r.Explore.complete

let test_broadcast_exhaustive () =
  let r = explore (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "dsm-broadcast" r;
  check_true "fully enumerated" r.Explore.complete

let test_single_waiter_exhaustive () =
  let r = explore (module Dsm_single_waiter) ~n:2 ~waiters:[ 1 ] ~polls:3 in
  check_no_violation "dsm-single" r;
  check_true "fully enumerated" r.Explore.complete

let test_registration_exhaustive () =
  (* Fully enumerable at one waiter; at two waiters the state space tops
     the cap (~11M interleavings), so that run is a bounded search. *)
  let r = explore (module Dsm_registration) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "dsm-registration (n=2)" r;
  check_true "fully enumerated" r.Explore.complete;
  let r3 = explore (module Dsm_registration) ~n:3 ~waiters:[ 1; 2 ] ~polls:1 in
  check_no_violation "dsm-registration (n=3, capped)" r3

let test_queue_exhaustive () =
  (* The drain's await can spin on a claimed slot, so some branches
     truncate; spec safety must hold on every explored prefix. *)
  let r = explore (module Dsm_queue) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "dsm-queue" r

let test_cas_register_exhaustive () =
  let r = explore (module Cas_register) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "cas-register" r

let test_llsc_register_exhaustive () =
  let r = explore (module Llsc_register) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "llsc-register" r

let test_fixed_waiters_exhaustive () =
  let r = explore (module Dsm_fixed_waiters) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "dsm-fixed" r;
  check_true "fully enumerated" r.Explore.complete

let test_multi_signaler_exhaustive () =
  (* Two racing signalers (leader election inside Signal()) and one
     waiter: safety over the explored space; the losing signaler's remote
     spin truncates some branches. *)
  let module M = Multi_signaler.Make (Dsm_broadcast) in
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n:3 ~waiters:[ 2 ] ~signalers:[ 0; 1 ] in
  let inst = Signaling.instantiate (module M) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    [ (0, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 0) ]);
      (1, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 1) ]);
      ( 2,
        Explore.repeat ~limit:2
          ~until:(fun r -> r = 1)
          (Signaling.poll_label, inst.Signaling.i_poll 2) ) ]
  in
  (* Bounded search: the remote spin makes the space unbounded, so the cap
     governs runtime.  10k deduplicated/reduced histories cover tens of
     thousands of distinct states — comparable behavioral coverage to the
     400k raw interleavings the naive checker's budget used to buy, at a
     fraction of the time. *)
  let r =
    Explore.check ~max_histories:10_000 ~layout
      ~model:(Cost_model.dsm layout) ~n:3 ~scripts ~property:spec_ok ()
  in
  check_no_violation "multi-signaler" r

(* --- reduction effectiveness, scale, and determinism --- *)

let test_reduction_ratio () =
  (* The reference configuration of the rewrite: dedup + POR must visit at
     least 10x fewer states than the naive enumeration while returning the
     same verdict. *)
  let layout, scripts =
    scripts_for (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  let run ~dedup ~por =
    Explore.check ~dedup ~por ~layout ~model:(Cost_model.dsm layout) ~n:3
      ~scripts ~property:spec_ok ()
  in
  let reduced = run ~dedup:true ~por:true in
  let naive = run ~dedup:false ~por:false in
  check_no_violation "reduced" reduced;
  check_no_violation "naive" naive;
  check_true "reduced complete" reduced.Explore.complete;
  check_true "naive complete" naive.Explore.complete;
  check_true
    (Printf.sprintf "at least 10x fewer states (%d vs %d)"
       reduced.Explore.stats.Explore.states naive.Explore.stats.Explore.states)
    (naive.Explore.stats.Explore.states
    >= 10 * reduced.Explore.stats.Explore.states)

let test_previously_infeasible_scope () =
  (* Three waiters x two polls was far beyond the naive checker's budget
     (hundreds of millions of interleavings); with the reductions the space
     collapses to a few thousand histories and enumerates exhaustively. *)
  let r = explore (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2 in
  check_no_violation "cc-flag (3 waiters)" r;
  check_true "fully enumerated" r.Explore.complete

(* Everything a rerun must reproduce: all counters plus the violation's
   recorded calls; only [stats.wall_s] may differ between runs. *)
let comparable (r : Explore.result) =
  let s = r.Explore.stats in
  ( ( r.Explore.histories,
      r.Explore.truncated,
      r.Explore.complete,
      Option.map Sim.calls r.Explore.violation ),
    ( s.Explore.states,
      s.Explore.dedup_hits,
      s.Explore.por_prunes,
      s.Explore.max_depth,
      s.Explore.orbit_hits ),
    ( s.Explore.fp_distinct,
      s.Explore.fp_collisions,
      s.Explore.fp_resizes,
      s.Explore.fp_slots ) )

(* [?split_depth] is still accepted while a caller passes it, and ignored:
   the search is one depth-first pass over one dedup table whatever the
   depth, so every counter equals the search run without it. *)
let test_split_depth_ignored () =
  let layout, scripts =
    scripts_for (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  let run ?split_depth () =
    Explore.check ?split_depth ~layout ~model:(Cost_model.dsm layout) ~n:4
      ~scripts ~property:spec_ok ()
  in
  let r = run () in
  check_true "complete" r.Explore.complete;
  List.iter
    (fun d ->
      check_true
        (Printf.sprintf "split depth %d: identical" d)
        (comparable (run ~split_depth:d ()) = comparable r))
    [ 0; 2; 5 ]

(* A deliberately broken algorithm: Signal() writes a decoy variable and
   never touches the flag Poll() reads, so every Poll() after a completed
   Signal() still returns false — the second clause of Specification 4.1.
   The checker must find this mutation. *)
module Broken_cc_flag = struct
  let name = "broken-cc-flag"
  let description = "mutation: Signal writes the wrong variable"
  let primitives = [ Op.Reads_writes ]
  let flexibility = Signaling.any_flexibility

  type t = { flag : bool Var.t; decoy : bool Var.t }

  let create ctx _cfg =
    { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false;
      decoy = Var.Ctx.bool ctx ~name:"decoy" ~home:Var.Shared false }

  let signal t _p = Program.write t.decoy true
  let poll t _p = Program.read t.flag
end

let test_mutation_caught () =
  let layout, scripts =
    scripts_for (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  match
    (Explore.check ~layout ~model:(Cost_model.dsm layout) ~n:3 ~scripts
       ~property:spec_ok ())
      .Explore.violation
  with
  | None -> Alcotest.fail "mutation not caught"
  | Some sim -> check_true "violating history non-empty" (Sim.calls sim <> [])

let test_fast_property_agrees () =
  (* [Signaling.polling_ok] (the allocation-free form the CLI feeds the
     explorer) must be verdict-equivalent to the violation-listing checker
     on both a correct algorithm and a broken one. *)
  let run (module A : Signaling.POLLING) ~n ~waiters property =
    let layout, scripts = scripts_for (module A) ~n ~waiters ~polls:2 in
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n ~scripts ~property ()
  in
  let slow = run (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] spec_ok in
  let fast =
    run (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] Signaling.polling_ok
  in
  check_true "same violating history on the mutant"
    (Option.map Sim.calls slow.Explore.violation
    = Option.map Sim.calls fast.Explore.violation);
  check_true "violation actually found" (fast.Explore.violation <> None);
  let clean = run (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] Signaling.polling_ok in
  check_true "clean algorithm stays clean" (clean.Explore.violation = None)

(* --- budget determinism and fingerprint interning --- *)

let test_capped_deterministic () =
  (* A budget that stops the search midway: the full search checks 277
     histories here, so a budget of 40 binds, and a rerun stops at the
     same leaf with every number identical. *)
  let layout, scripts =
    scripts_for (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  let run () =
    Explore.check ~max_histories:40 ~layout ~model:(Cost_model.dsm layout)
      ~n:4 ~scripts ~property:spec_ok ()
  in
  let r = run () in
  check_false "capped" r.Explore.complete;
  check_int "stops exactly at the budget" 40 r.Explore.histories;
  check_true "a rerun is identical" (comparable (run ()) = comparable r)

let test_fp_intern_ids () =
  (* Two distinct keys forced onto one hash: distinct, stable, dense ids;
     the collision is counted; ids survive table growth. *)
  let t = Fp_intern.create ~equal:String.equal () in
  let id_a = Fp_intern.intern t ~hash:42 "a" in
  let id_b = Fp_intern.intern t ~hash:42 "b" in
  check_int "first id is 0" 0 id_a;
  check_int "colliding key gets the next id" 1 id_b;
  check_int "two distinct keys" 2 (Fp_intern.distinct t);
  check_int "one collision counted" 1 (Fp_intern.collisions t);
  check_int "re-interning is stable" id_a (Fp_intern.intern t ~hash:42 "a");
  check_int "for both keys" id_b (Fp_intern.intern t ~hash:42 "b");
  check_int "re-interning adds nothing" 2 (Fp_intern.distinct t);
  for i = 2 to 2000 do
    ignore (Fp_intern.intern t ~hash:(i * 7919) (string_of_int i))
  done;
  check_int "ids survive resizes" id_a (Fp_intern.intern t ~hash:42 "a");
  check_int "all keys kept" 2001 (Fp_intern.distinct t)

(* --- symmetry reduction --- *)

(* Like [scripts_for], but also detect the interchangeable waiters the
   way the CLI does: one representative Poll() per waiter, bisimulated
   over the lint's response domain. *)
let scripts_sym (module A : Signaling.POLLING) ~n ~waiters ~polls =
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n ~waiters ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    (0, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 0) ])
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:polls
               ~until:(fun r -> r = 1)
               (Signaling.poll_label, inst.Signaling.i_poll w) ))
         waiters
  in
  let symmetry =
    Explore.detect_symmetry
      ~values:(Analysis.Lint.value_domain ~n ~layout)
      (List.map
         (fun w -> (w, (Signaling.poll_label, inst.Signaling.i_poll w)))
         waiters)
  in
  (layout, scripts, symmetry)

let test_detect_symmetry () =
  (* cc-flag waiters all read the one shared flag: interchangeable. *)
  let _, _, sym = scripts_sym (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_int "both cc-flag waiters detected" 2 (Sim.Pid_set.cardinal sym);
  check_true "pid 1 in the set" (Sim.Pid_set.mem 1 sym);
  check_true "pid 2 in the set" (Sim.Pid_set.mem 2 sym);
  (* dsm-broadcast waiters each read their own per-pid flag: the poll
     programs differ structurally (distinct addresses), so detection must
     decline rather than prune unsoundly. *)
  let _, _, bsym =
    scripts_sym (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "per-pid variables decline detection" 0 (Sim.Pid_set.cardinal bsym);
  (* llsc-register polls issue Ll, which records its pid in the memory
     fingerprint: refused outright. *)
  let _, _, lsym =
    scripts_sym (module Llsc_register) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "Ll declines detection" 0 (Sim.Pid_set.cardinal lsym)

let test_detect_symmetry_stuck_leaves () =
  (* dsm-queue's Poll() decodes a queue index from a fetch-and-increment
     response; over the lint's value domain (which includes the NIL code
     -1) the continuation raises.  Detection must treat that as a stuck
     leaf and carry on — here declining, since each waiter reads its own
     registration flag — instead of raising. *)
  let _, _, qsym = scripts_sym (module Dsm_queue) ~n:4 ~waiters:[ 1; 2 ] ~polls:2 in
  check_int "dsm-queue declines without raising" 0 (Sim.Pid_set.cardinal qsym);
  (* Two programs that get stuck on the same responses are bisimilar; one
     that gets stuck where the other goes on is not. *)
  let strict () =
    Program.Step
      (Op.Read 0, fun v -> if v < 0 then invalid_arg "negative" else Program.Return v)
  in
  let lenient = Program.Step (Op.Read 0, fun v -> Program.Return v) in
  let values = [ -1; 0; 1 ] in
  check_int "stuck against stuck matches" 2
    (Sim.Pid_set.cardinal
       (Explore.detect_symmetry ~values [ (1, ("p", strict ())); (2, ("p", strict ())) ]));
  check_int "stuck against live declines" 0
    (Sim.Pid_set.cardinal
       (Explore.detect_symmetry ~values [ (1, ("p", strict ())); (2, ("p", lenient)) ]))

(* The search never builds a canonical array: the state hash and the
   packed key are computed through the permutation.  Both must agree with
   the materialized canonical array. *)
let check_through_perm what ~symmetry meta =
  let open Explore.Testing in
  let canon = fst (canonicalize ~symmetry meta) in
  check_int (what ^ ": hash through the permutation") (hash canon)
    (canonical_hash ~symmetry meta);
  check_true (what ^ ": equal to its canonical array through the permutation")
    (canonical_equal ~symmetry meta canon);
  let other = Array.copy canon in
  other.(0) <- idle ~begun:99 ~last:None;
  check_false (what ^ ": unequal to a different array")
    (canonical_equal ~symmetry meta other)

let test_canonicalization_laws () =
  let open Explore.Testing in
  let symmetry =
    List.fold_left
      (fun s p -> Sim.Pid_set.add p s)
      Sim.Pid_set.empty [ 1; 2; 3 ]
  in
  (* Signaler running, three waiters in pairwise-distinct control states
     (distinct permutation-invariant sort keys, so the canonical form is
     unique and the laws hold exactly, ties aside). *)
  let sample =
    [| running ~label:"Signal" ~seq:0 ~resps_rev:[ 1 ] ~snap:[| 0; 2; 1; 0 |];
       idle ~begun:2 ~last:(Some 1);
       running ~label:"Poll" ~seq:1 ~resps_rev:[ 0 ] ~snap:[| 1; 0; 1; 0 |];
       idle ~begun:0 ~last:None |]
  in
  let canon = fst (canonicalize ~symmetry sample) in
  check_through_perm "sample" ~symmetry sample;
  (* Idempotence: the canonical form is its own representative, found by
     the already-sorted fast path. *)
  let canon2, moved2 = canonicalize ~symmetry canon in
  check_true "canonicalize is idempotent" (equal canon canon2);
  check_false "second pass reports no relabeling" moved2;
  (* Invariance: every relabeling of the waiters canonicalizes to the
     same representative — the whole point of orbit reduction. *)
  let perms =
    [ [| 0; 1; 3; 2 |];
      [| 0; 2; 1; 3 |];
      [| 0; 2; 3; 1 |];
      [| 0; 3; 1; 2 |];
      [| 0; 3; 2; 1 |] ]
  in
  List.iteri
    (fun i perm ->
      let twin = relabel ~perm sample in
      let c = fst (canonicalize ~symmetry twin) in
      check_true
        (Printf.sprintf "relabeling %d canonicalizes identically" i)
        (equal canon c);
      check_through_perm (Printf.sprintf "relabeling %d" i) ~symmetry twin;
      check_true
        (Printf.sprintf "relabeling %d matches the stored canonical key" i)
        (canonical_equal ~symmetry twin canon))
    perms;
  (* Tied sort keys: waiters 1 and 2 run the same call, and each saw
     itself and waiter 3 complete a call but not the other — the same
     permutation-invariant view, different snapshots. *)
  let tied =
    [| running ~label:"Signal" ~seq:0 ~resps_rev:[] ~snap:[| 0; 1; 1; 1 |];
       running ~label:"Poll" ~seq:1 ~resps_rev:[] ~snap:[| 0; 1; 0; 1 |];
       running ~label:"Poll" ~seq:1 ~resps_rev:[] ~snap:[| 0; 0; 1; 1 |];
       running ~label:"Poll" ~seq:0 ~resps_rev:[ 0 ] ~snap:[| 0; 1; 1; 0 |] |]
  in
  List.iteri
    (fun i perm ->
      check_through_perm (Printf.sprintf "tied, relabeling %d" i) ~symmetry
        (relabel ~perm tied))
    perms;
  (* Empty symmetry: canonicalization is the identity. *)
  let id, moved = canonicalize ~symmetry:Sim.Pid_set.empty sample in
  check_true "empty symmetry is the identity" (equal id sample);
  check_false "and reports no relabeling" moved

let test_canonicalization_pins_asymmetric_slots () =
  let open Explore.Testing in
  (* All-idle slots (no snapshots), so slot content is position-free and
     [slot_equal] across positions is meaningful.  Waiters 1 and 2 are
     symmetric and unsorted; signaler 0 and outsider 3 must stay put. *)
  let symmetry = Sim.Pid_set.add 1 (Sim.Pid_set.add 2 Sim.Pid_set.empty) in
  let s0 = idle ~begun:5 ~last:(Some 1)
  and w_hi = idle ~begun:2 ~last:(Some 0)
  and w_lo = idle ~begun:1 ~last:None
  and s3 = idle ~begun:7 ~last:(Some 0) in
  let sample = [| s0; w_hi; w_lo; s3 |] in
  let canon, moved = canonicalize ~symmetry sample in
  check_true "a relabeling was applied" moved;
  check_through_perm "pinned" ~symmetry sample;
  check_true "signaler slot never moves" (slot_equal canon.(0) s0);
  check_true "non-symmetric waiter slot never moves" (slot_equal canon.(3) s3);
  check_true "symmetric slots were reordered"
    (slot_equal canon.(1) w_lo && slot_equal canon.(2) w_hi);
  (* The flipped array is the same orbit: same canonical form. *)
  let flipped = [| s0; w_lo; w_hi; s3 |] in
  let canon', moved' = canonicalize ~symmetry flipped in
  check_true "orbit twin canonicalizes identically" (equal canon canon');
  check_false "the already-sorted twin needs no relabeling" moved'

(* --- packed dedup keys --- *)

(* Random states for the packing law: slots drawn from a pool of boundary
   values (zigzag sign, LEB128 byte widths, the low byte alone), labels
   from three strings, memories from writes, write-backs to the initial
   value and load-links over a four-cell layout. *)
let key_values = [ min_int; -129; -1; 0; 1; 127; 128; 255; 256; 16384; max_int ]

let key_labels = [ "Poll"; "Signal"; "Wait" ]

type kslot =
  | K_idle of int * int option
  | K_running of string * int * int list * int array

type kmem = K_write of int * int | K_back of int | K_ll of int * int

type kstate = { k_slots : kslot array; k_mem : kmem list }

let key_layout, key_cells =
  let ctx = Var.Ctx.create () in
  let v =
    Var.Ctx.int_vec ctx ~name:"K" ~home:(fun _ -> Var.Shared) 4 (fun i ->
        List.nth [ 0; 1; 255; 16384 ] i)
  in
  (Var.Ctx.freeze ctx, Array.init 4 (Var.vec_addr v))

let kmem ops =
  List.fold_left
    (fun m op ->
      let inv =
        match op with
        | K_write (c, v) -> Op.Write (key_cells.(c), v)
        | K_back c ->
          Op.Write (key_cells.(c), Var.layout_init key_layout key_cells.(c))
        | K_ll (c, _) -> Op.Ll key_cells.(c)
      in
      let pid = match op with K_ll (_, p) -> p | K_write _ | K_back _ -> 0 in
      (Memory.apply m ~pid inv).Memory.memory)
    (Memory.create key_layout) ops

(* Fresh label strings, so equal labels are never merely physically
   equal. *)
let kslots st =
  Array.map
    (function
      | K_idle (b, r) -> Explore.Testing.idle ~begun:b ~last:r
      | K_running (l, seq, resps, snap) ->
        Explore.Testing.running ~label:(Bytes.to_string (Bytes.of_string l))
          ~seq ~resps_rev:resps ~snap)
    st.k_slots

let gen_kslot n =
  let open QCheck.Gen in
  let v = oneofl key_values in
  frequency
    [ (1, map2 (fun b r -> K_idle (b, r)) v (opt v));
      ( 2,
        map4
          (fun l seq resps snap -> K_running (l, seq, resps, snap))
          (oneofl key_labels) v
          (list_size (int_bound 8) v)
          (array_size (return n) v) ) ]

let gen_kmem =
  let open QCheck.Gen in
  let c = int_bound 3 in
  list_size (int_bound 5)
    (frequency
       [ (2, map2 (fun c v -> K_write (c, v)) c (oneofl key_values));
         (1, map (fun c -> K_back c) c);
         (1, map2 (fun c p -> K_ll (c, p)) c (int_bound 4)) ])

let gen_kstate n =
  QCheck.Gen.map2
    (fun k_slots k_mem -> { k_slots; k_mem })
    (QCheck.Gen.array_size (QCheck.Gen.return n) (gen_kslot n))
    gen_kmem

(* [st] with its slots relabeled by [perm] (old pid -> new pid), the
   snapshots re-indexed alike. *)
let krelabel perm st =
  let n = Array.length st.k_slots in
  let out = Array.make n (K_idle (0, None)) in
  Array.iteri
    (fun p sl ->
      out.(perm.(p)) <-
        (match sl with
        | K_idle _ -> sl
        | K_running (l, seq, resps, snap) ->
          let snap' = Array.make n 0 in
          Array.iteri (fun q x -> snap'.(perm.(q)) <- x) snap;
          K_running (l, seq, resps, snap')))
    st.k_slots;
  { st with k_slots = out }

(* One small change to one field, which may or may not change the state
   (a value can be redrawn as itself). *)
let gen_kmutation st =
  let open QCheck.Gen in
  let n = Array.length st.k_slots in
  let v = oneofl key_values in
  let set i sl =
    let a = Array.copy st.k_slots in
    a.(i) <- sl;
    { st with k_slots = a }
  in
  int_bound (n - 1) >>= fun i ->
  frequency
    [ ( 3,
        match st.k_slots.(i) with
        | K_idle (b, r) ->
          oneof
            [ map (fun b -> set i (K_idle (b, r))) v;
              map (fun r -> set i (K_idle (b, r))) (opt v) ]
        | K_running (l, seq, resps, snap) ->
          oneof
            [ map
                (fun l -> set i (K_running (l, seq, resps, snap)))
                (oneofl key_labels);
              map (fun seq -> set i (K_running (l, seq, resps, snap))) v;
              map (fun x -> set i (K_running (l, seq, x :: resps, snap))) v;
              map
                (fun x ->
                  let resps = match resps with [] -> [ x ] | _ :: r -> x :: r in
                  set i (K_running (l, seq, resps, snap)))
                v;
              map2
                (fun j x ->
                  let snap = Array.copy snap in
                  snap.(j) <- x;
                  set i (K_running (l, seq, resps, snap)))
                (int_bound (n - 1)) v ] );
      (1, map (fun op -> { st with k_mem = st.k_mem @ op }) gen_kmem) ]

(* A state, a symmetry over waiters [1..n-1] (all, two, or none), and a
   second state: an unrelated one, an orbit twin (its memory possibly
   reached by a longer history), or an orbit twin with one field
   changed. *)
let gen_key_case =
  let open QCheck.Gen in
  int_range 3 5 >>= fun n ->
  gen_kstate n >>= fun st ->
  oneofl [ `All; `Two; `None ] >>= fun sym ->
  let symmetric =
    match sym with
    | `All -> List.init (n - 1) (fun i -> i + 1)
    | `Two -> [ 1; n - 1 ]
    | `None -> []
  in
  shuffle_l symmetric >>= fun shuffled ->
  let perm = Array.init n Fun.id in
  List.iter2 (fun p q -> perm.(p) <- q) symmetric shuffled;
  let twin = krelabel perm st in
  (let extra_mem =
     map (fun ops -> { twin with k_mem = twin.k_mem @ ops }) gen_kmem
   in
   frequency
     [ (1, gen_kstate n);
       (2, return twin);
       (1, extra_mem);
       (3, gen_kmutation twin) ])
  >>= fun other -> return (symmetric, st, other)

let pp_kstate st =
  let slot = function
    | K_idle (b, r) ->
      Printf.sprintf "idle(%d,%s)" b
        (match r with None -> "-" | Some v -> string_of_int v)
    | K_running (l, seq, resps, snap) ->
      Printf.sprintf "run(%s,%d,[%s],[%s])" l seq
        (String.concat ";" (List.map string_of_int resps))
        (String.concat ";" (Array.to_list (Array.map string_of_int snap)))
  and op = function
    | K_write (c, v) -> Printf.sprintf "w%d:=%d" c v
    | K_back c -> Printf.sprintf "back%d" c
    | K_ll (c, p) -> Printf.sprintf "ll%d@%d" c p
  in
  Printf.sprintf "[%s] mem[%s]"
    (String.concat " " (Array.to_list (Array.map slot st.k_slots)))
    (String.concat " " (List.map op st.k_mem))

(* The packing law: two states' keys are equal exactly when their
   memories have the same fingerprint and their canonical slot arrays are
   structurally equal.  Fails for an encoder that drops a field, skips
   load-links or truncates an int. *)
let prop_packed_key_decides_equality =
  qcheck ~count:2000 "packed key equality is state equality"
    (QCheck.make
       ~print:(fun (sym, a, b) ->
         Printf.sprintf "symmetry {%s}\n  %s\n  %s"
           (String.concat "," (List.map string_of_int sym))
           (pp_kstate a) (pp_kstate b))
       gen_key_case)
    (fun (sym, a, b) ->
      let open Explore.Testing in
      let symmetry = Sim.Pid_set.of_list sym in
      let ma = kmem a.k_mem and mb = kmem b.k_mem in
      let sa = kslots a and sb = kslots b in
      let same_key =
        String.equal (key ~symmetry ma sa) (key ~symmetry mb sb)
      in
      same_key
      = (Memory.same_fingerprint ma mb
        && equal (fst (canonicalize ~symmetry sa))
             (fst (canonicalize ~symmetry sb))))

let test_spin_keys_small () =
  (* A spinning call's responses are stored once per task and its key
     holds their id: 500 responses pack no longer than 1. *)
  let open Explore.Testing in
  let ids = ids () in
  let mem = Memory.create key_layout in
  let state resps =
    [| running ~label:"Signal" ~seq:0 ~resps_rev:[] ~snap:[| 0; 0; 0 |];
       running ~label:"Poll" ~seq:1 ~resps_rev:resps ~snap:[| 0; 1; 0 |];
       idle ~begun:0 ~last:None |]
  in
  let short = key ~ids ~symmetry:Sim.Pid_set.empty mem (state [ 0 ])
  and long =
    key ~ids ~symmetry:Sim.Pid_set.empty mem
      (state (List.init 500 (fun _ -> 0)))
  in
  check_false "different states, different keys" (String.equal short long);
  check_int "same key length" (String.length short) (String.length long)

let test_symmetry_preserves_verdict () =
  let layout, scripts, symmetry =
    scripts_sym (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  check_int "three interchangeable waiters" 3 (Sim.Pid_set.cardinal symmetry);
  let run symmetry =
    Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:4 ~scripts
      ~property:spec_ok ()
  in
  let sym = run symmetry and plain = run Sim.Pid_set.empty in
  check_no_violation "with symmetry" sym;
  check_true "with symmetry: complete" sym.Explore.complete;
  check_no_violation "without" plain;
  check_true "without: complete" plain.Explore.complete;
  check_true "orbit merging happened" (sym.Explore.stats.Explore.orbit_hits > 0);
  check_int "no orbit hits without symmetry" 0
    plain.Explore.stats.Explore.orbit_hits;
  check_true
    (Printf.sprintf "fewer states under symmetry (%d vs %d)"
       sym.Explore.stats.Explore.states plain.Explore.stats.Explore.states)
    (sym.Explore.stats.Explore.states < plain.Explore.stats.Explore.states);
  check_true "fewer orbit representatives than raw states"
    (sym.Explore.stats.Explore.fp_distinct
    < plain.Explore.stats.Explore.fp_distinct)

let test_symmetry_mutation_caught () =
  (* The broken signaler's waiters still run identical Poll() programs, so
     symmetry reduction applies — and must not prune the violation away. *)
  let layout, scripts, symmetry =
    scripts_sym (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "mutant waiters interchangeable" 2 (Sim.Pid_set.cardinal symmetry);
  match
    (Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:3
       ~scripts ~property:spec_ok ())
      .Explore.violation
  with
  | None -> Alcotest.fail "mutation not caught under symmetry"
  | Some sim -> check_true "violating history non-empty" (Sim.calls sim <> [])

let test_symmetry_deterministic () =
  let layout, scripts, symmetry =
    scripts_sym (module Cc_flag) ~n:5 ~waiters:[ 1; 2; 3; 4 ] ~polls:2
  in
  check_int "four interchangeable waiters" 4 (Sim.Pid_set.cardinal symmetry);
  let run () =
    Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:5
      ~scripts ~property:spec_ok ()
  in
  let r = run () in
  check_true "4-waiter scope enumerates exhaustively" r.Explore.complete;
  check_true "a rerun is identical" (comparable (run ()) = comparable r)

(* --- the violation machine --- *)

let test_violation_full_history () =
  (* The search steps no machine; a violation comes back as its move path
     replayed on a fresh full-history [Sim] — steps recorded, the timeline
     renderable — with and without symmetry. *)
  let layout, scripts, symmetry =
    scripts_sym (module Broken_cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  List.iter
    (fun symmetry ->
      match
        (Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:4
           ~scripts ~property:spec_ok ())
          .Explore.violation
      with
      | None -> Alcotest.fail "mutation not caught"
      | Some v ->
        check_true "the violation machine keeps its steps" (Sim.steps v <> []);
        check_true "and fails the property" (not (spec_ok (Sim.calls v)));
        check_true "its timeline renders" (Timeline.render v <> ""))
    [ symmetry; Sim.Pid_set.empty ]

(* [Array.sort]'s algorithm, copied for the canonicalizer: same result
   under comparators that tie, where the order among tied elements is
   the algorithm's own. *)
let prop_heap_sort_is_array_sort =
  let comparators =
    [| (fun (a : int) b -> compare a b);
       (fun a b -> compare (a / 3) (b / 3));
       (fun a b -> compare (b mod 3) (a mod 3));
       (fun _ _ -> 0) |]
  in
  qcheck ~count:500 "heap sort returns what Array.sort returns"
    QCheck.(
      pair (int_bound (Array.length comparators - 1))
        (array_of_size Gen.(int_bound 8) (int_bound 9)))
    (fun (c, a) ->
      let cmp = comparators.(c) in
      let expected = Array.copy a and got = Array.copy a in
      Array.sort cmp expected;
      Explore.Testing.heap_sort cmp got;
      expected = got)

(* --- the property contract --- *)

let sorted_calls calls = List.sort compare calls

let test_property_sees_sim_calls () =
  (* A property that fails at the k-th completion: the calls it was handed
     at that moment — completed and in flight, start times, RMR and step
     tallies — must be exactly the calls of the replayed violation
     machine, as a multiset.  Cache-coherent models bill differently from
     DSM, so [c_rmrs] is checked against a second accounting too. *)
  let cases =
    (* llsc-register's spins reach a 4th completion only ~7M states in *)
    [ ("cc-flag", (module Cc_flag : Signaling.POLLING), [ 1; 2; 4 ]);
      ("dsm-broadcast", (module Dsm_broadcast), [ 1; 2; 4 ]);
      ("llsc-register", (module Llsc_register), [ 1; 2; 3 ]) ]
  in
  let models =
    [ ("dsm", fun layout -> Cost_model.dsm layout);
      ("cc-wb", fun _ -> Cc.model ~protocol:Cc.Write_back ~n:3 ()) ]
  in
  List.iter
    (fun (name, m, ks) ->
      let layout, scripts = scripts_for m ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
      List.iter
        (fun (model_name, model) ->
          List.iter
            (fun k ->
              let handed = ref [] in
              let property calls =
                let completed =
                  List.length
                    (List.filter (fun c -> c.History.c_finished <> None) calls)
                in
                completed < k
                ||
                (handed := calls;
                 false)
              in
              (* The first failing evaluation is the one the search stops
                 at and reports. *)
              let r =
                Explore.check ~layout ~model:(model layout) ~n:3 ~scripts
                  ~property ()
              in
              let what = Printf.sprintf "%s/%s, k=%d" name model_name k in
              match r.Explore.violation with
              | None -> Alcotest.failf "%s: no violation" what
              | Some sim ->
                check_true (what ^ ": the property's calls are Sim.calls")
                  (sorted_calls !handed = sorted_calls (Sim.calls sim));
                check_true (what ^ ": some call was in flight or billed")
                  (List.exists
                     (fun c -> c.History.c_finished = None || c.History.c_rmrs > 0)
                     !handed))
            ks)
        models)
    cases

let test_cc_flag_golden () =
  (* Every search counter of the 4-waiter cc-flag search, pinned byte for
     byte to `separation explore -a cc-flag -n 5 -k 4 --polls 2 --json`;
     regenerate with `dune exec test/golden/gen.exe` only when a counter is
     meant to move. *)
  let setup =
    { (Exhaustive.setup (module Cc_flag)) with n = 5; waiters = 4; polls = 2 }
  in
  Alcotest.(check string)
    "golden explore JSON"
    (read_file "golden/explore_cc_flag.json")
    (let prepared = Exhaustive.prepare setup in
     Results.to_json
       (Exhaustive.table setup prepared (Exhaustive.search setup prepared)))

(* The scenario refuses negative counts itself, so the benchmark and the
   golden generator, which build setups without the CLI, cannot run a
   search the CLI would refuse. *)
let test_setup_refuses_negative_counts () =
  let setup = { (Exhaustive.setup (module Cc_flag)) with n = 3 } in
  check_true "a cap and polls of 0 are accepted"
    (Exhaustive.validate { setup with cap = 0; polls = 0 } = Ok ());
  check_true "a cap of -1 is refused with a message"
    (Exhaustive.validate { setup with cap = -1 }
    = Error "--cap must be >= 0, got -1");
  let msg = "--polls must be >= 0, got -1" in
  check_true "polls of -1 are refused with a message"
    (Exhaustive.validate { setup with polls = -1 } = Error msg);
  Alcotest.check_raises "prepare refuses it too" (Invalid_argument msg)
    (fun () -> ignore (Exhaustive.prepare { setup with polls = -1 }))

(* --- independent searches --- *)

(* Each search owns its dedup table: two searches started together on two
   domains report exactly what one search run alone reports. *)
let test_concurrent_searches_independent () =
  let layout, scripts = scripts_for (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let run () =
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n:3 ~scripts
      ~property:spec_ok ()
  in
  let alone = comparable (run ()) in
  let other = Domain.spawn run in
  let here = run () in
  let there = Domain.join other in
  check_no_violation "search beside another" here;
  check_true "a search run beside another equals the lone search"
    (comparable here = alone);
  check_true "and so does the other" (comparable there = alone)

(* --- stats plumbing --- *)

let test_fp_stats_exposed () =
  let r = explore (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let s = r.Explore.stats in
  check_true "distinct keys counted" (s.Explore.fp_distinct > 0);
  check_true "intern slots allocated" (s.Explore.fp_slots > 0);
  check_true "intern load kept under 1/2"
    (2 * s.Explore.fp_distinct <= s.Explore.fp_slots);
  (* Collisions cost a confirming compare, never soundness.  Structurally
     each newly interned key counts at most one. *)
  check_true "collision count within its structural bound"
    (s.Explore.fp_collisions < s.Explore.fp_distinct)

let test_state_hash_collision_free () =
  (* The state hash sums finalized per-slot and per-cell hashes: distinct
     keys that only permute values between pids or cells must not share a
     full hash.  Two configurations where the unfinalized affine sum made
     hundreds of distinct keys collide. *)
  let collisions (module A : Signaling.POLLING) ~n ~waiters ~polls =
    let layout, scripts, symmetry = scripts_sym (module A) ~n ~waiters ~polls in
    let r =
      Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n
        ~scripts ~property:spec_ok ()
    in
    check_true "search complete" r.Explore.complete;
    r.Explore.stats.Explore.fp_collisions
  in
  check_int "dsm-broadcast N=3, 2 waiters, 3 polls" 0
    (collisions (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:3);
  check_int "cc-flag N=4, 3 waiters, 2 polls" 0
    (collisions (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2)

let suite =
  [ case "interleaving count" test_count_basics;
    case "history cap respected" test_count_respects_cap;
    case "spin loops truncate" test_truncation_of_spin_loops;
    case "violations reported" test_violation_reported;
    case "cc-flag: all interleavings safe" test_cc_flag_exhaustive;
    case "dsm-broadcast: all interleavings safe" test_broadcast_exhaustive;
    case "dsm-single: all interleavings safe" test_single_waiter_exhaustive;
    case "dsm-registration: all interleavings safe" test_registration_exhaustive;
    case "dsm-queue: explored interleavings safe" test_queue_exhaustive;
    case "cas-register: explored interleavings safe" test_cas_register_exhaustive;
    case "llsc-register: explored interleavings safe" test_llsc_register_exhaustive;
    case "dsm-fixed: all interleavings safe" test_fixed_waiters_exhaustive;
    case "multi-signaler: explored interleavings safe" test_multi_signaler_exhaustive;
    case "dedup+por: >=10x fewer states than naive" test_reduction_ratio;
    case "3 waiters x 2 polls enumerates exhaustively"
      test_previously_infeasible_scope;
    case "split depth is ignored: identical counters"
      test_split_depth_ignored;
    case "mutation caught" test_mutation_caught;
    case "violation machine: full history" test_violation_full_history;
    case "fast spec property agrees with the checker" test_fast_property_agrees;
    case "capped search stops at the budget, identical on rerun"
      test_capped_deterministic;
    case "fingerprint interning: dense stable ids" test_fp_intern_ids;
    case "symmetry detection: sound accept and decline" test_detect_symmetry;
    case "symmetry detection: raising continuations are stuck leaves"
      test_detect_symmetry_stuck_leaves;
    case "canonicalization: idempotent, orbit-invariant"
      test_canonicalization_laws;
    case "canonicalization: pinned slots never move"
      test_canonicalization_pins_asymmetric_slots;
    prop_packed_key_decides_equality;
    case "packed keys: a spinning call's key does not grow"
      test_spin_keys_small;
    case "symmetry preserves the verdict, shrinks the search"
      test_symmetry_preserves_verdict;
    case "mutation caught under symmetry" test_symmetry_mutation_caught;
    case "4 waiters under symmetry: exhaustive, identical on rerun"
      test_symmetry_deterministic;
    case "searches started together are independent"
      test_concurrent_searches_independent;
    case "intern-table stats exposed and sane" test_fp_stats_exposed;
    case "state hash: no full-hash collisions" test_state_hash_collision_free;
    prop_heap_sort_is_array_sort;
    case "property is handed the violation machine's calls"
      test_property_sees_sim_calls;
    case "cc-flag 4-waiter counters match the golden" test_cc_flag_golden;
    case "explore setup refuses negative counts"
      test_setup_refuses_negative_counts ]
