(* Tests for the DSM and CC cost models, including the paper's "loose" CC
   assumption (Sec. 2) as an executable property and the Section 8 message
   accounting. *)

open Smr
open Test_util

let layout_with k =
  let ctx = Var.Ctx.create () in
  let vars =
    Array.init k (fun i ->
        Var.Ctx.int ctx ~name:(Printf.sprintf "v%d" i)
          ~home:(if i = 0 then Var.Shared else Var.Module (i - 1))
          0)
  in
  (Var.Ctx.freeze ctx, vars)

let account_seq model steps =
  (* Fold a list of (pid, inv, wrote) through a model, returning costs. *)
  let _, costs =
    List.fold_left
      (fun (m, acc) (pid, inv, wrote) ->
        let m, c = Cost_model.account m pid inv ~wrote in
        (m, c :: acc))
      (model, []) steps
  in
  List.rev costs

let rmrs costs = List.length (List.filter (fun c -> c.Cost_model.rmr) costs)

let messages costs =
  List.fold_left (fun acc c -> acc + c.Cost_model.messages) 0 costs

(* --- DSM --- *)

let test_dsm_homing () =
  let layout, vars = layout_with 3 in
  let m = Cost_model.dsm layout in
  let a_shared = Var.addr vars.(0)
  and a_p0 = Var.addr vars.(1)
  and a_p1 = Var.addr vars.(2) in
  let costs =
    account_seq m
      [ (0, Op.Read a_p0, false); (* own module: local *)
        (0, Op.Read a_p1, false); (* other module: RMR *)
        (0, Op.Read a_shared, false); (* shared module: RMR for everyone *)
        (1, Op.Write (a_p1, 5), true); (* own module *)
        (1, Op.Write (a_p0, 5), true) ]
  in
  check_true "dsm classification"
    (List.map (fun c -> c.Cost_model.rmr) costs = [ false; true; true; false; true ])

let test_dsm_spin_unbounded () =
  (* Re-reading a remote location is an RMR every time: the reason shared
     spin variables are fatal in DSM (Sec. 1). *)
  let layout, vars = layout_with 2 in
  let m = Cost_model.dsm layout in
  let a = Var.addr vars.(0) in
  let costs = account_seq m (List.init 50 (fun _ -> (0, Op.Read a, false))) in
  check_int "every remote read is an RMR" 50 (rmrs costs)

let test_dsm_predict_exact () =
  let layout, vars = layout_with 3 in
  let m = Cost_model.dsm layout in
  List.iter
    (fun (pid, inv) ->
      let predicted = Cost_model.predict m pid inv in
      let _, c = Cost_model.account m pid inv ~wrote:true in
      check_true "prediction exact" (predicted = Some c.Cost_model.rmr))
    [ (0, Op.Read (Var.addr vars.(1))); (1, Op.Write (Var.addr vars.(2), 1));
      (0, Op.Faa (Var.addr vars.(0), 1)) ]

(* --- CC write-through: the paper's loose model --- *)

let cc ?(protocol = Cc.Write_through) ?(interconnect = Cc.Bus) ?(n = 8) () =
  Cc.model ~protocol ~interconnect ~n ()

let test_cc_repeated_reads_one_rmr () =
  (* "if a process reads some memory location several times, then this
     entire sequence of reads incurs only one RMR in total provided that
     between the first and last of these reads there is no nontrivial
     operation performed by another process on that memory location" *)
  let m = cc () in
  let costs = account_seq m (List.init 20 (fun _ -> (0, Op.Read 0, false))) in
  check_int "twenty reads, one RMR" 1 (rmrs costs)

let test_cc_invalidation_then_one_more () =
  let m = cc () in
  let steps =
    List.init 10 (fun _ -> (0, Op.Read 0, false))
    @ [ (1, Op.Write (0, 5), true) ]
    @ List.init 10 (fun _ -> (0, Op.Read 0, false))
  in
  let costs = account_seq m steps in
  (* reader: 1 miss + 1 after invalidation; writer: 1 *)
  check_int "exactly three RMRs" 3 (rmrs costs)

let test_cc_trivial_op_preserves_cache () =
  (* A FAILED CAS by another process is trivial and must not invalidate. *)
  let m = cc () in
  let steps =
    [ (0, Op.Read 0, false); (1, Op.Cas (0, 99, 1), false);
      (0, Op.Read 0, false) ]
  in
  let costs = account_seq m steps in
  check_true "reader pays once"
    (List.map (fun c -> c.Cost_model.rmr) costs = [ true; true; false ])

let test_cc_wt_writes_always_remote () =
  let m = cc () in
  let costs =
    account_seq m (List.init 5 (fun i -> (0, Op.Write (0, i), true)))
  in
  check_int "write-through: every write an RMR" 5 (rmrs costs)

let test_cc_wb_owner_writes_local () =
  let m = cc ~protocol:Cc.Write_back () in
  let costs =
    account_seq m (List.init 5 (fun i -> (0, Op.Write (0, i), true)))
  in
  check_int "write-back: first write only" 1 (rmrs costs)

let test_cc_wb_ownership_migrates () =
  let m = cc ~protocol:Cc.Write_back () in
  let costs =
    account_seq m
      [ (0, Op.Write (0, 1), true); (1, Op.Write (0, 2), true);
        (0, Op.Write (0, 3), true) ]
  in
  check_int "each ownership change is an RMR" 3 (rmrs costs)

let test_lfcu_failed_comparison_local () =
  (* The defining LFCU feature (Sec. 3): a failed comparison primitive on a
     cached copy is local. *)
  let m = cc ~protocol:Cc.Write_update () in
  let costs =
    account_seq m
      [ (0, Op.Read 0, false); (* cache it *)
        (0, Op.Cas (0, 99, 1), false); (* failed CAS: local *)
        (0, Op.Cas (0, 0, 1), true) (* successful CAS: RMR *) ]
  in
  check_true "lfcu classification"
    (List.map (fun c -> c.Cost_model.rmr) costs = [ true; false; true ])

let test_lfcu_update_preserves_copies () =
  (* Write-update: a remote write refreshes copies instead of killing them,
     so the reader pays no further RMR. *)
  let m = cc ~protocol:Cc.Write_update () in
  let costs =
    account_seq m
      [ (0, Op.Read 0, false); (1, Op.Write (0, 7), true);
        (0, Op.Read 0, false) ]
  in
  check_true "reader keeps its copy"
    (List.map (fun c -> c.Cost_model.rmr) costs = [ true; true; false ])

(* The hit path, pinned.  On an unbounded cache, each access below must
   return the model physically unchanged (the [make_stateful] contract)
   and allocate under 12 minor words per [Cost_model.account]: the
   holder-set lookups and the two result pairs, with no room for an
   option allocated per access. *)
let test_cc_hit_path_unchanged () =
  let read = (0, Op.Read 0, false) in
  let cases =
    List.map
      (fun protocol ->
        (Cc.protocol_name protocol ^ " read hit", protocol, [ read ], read))
      Cc.protocols
    @ [ ( "cc-wb write by the owner",
          Cc.Write_back,
          [ (0, Op.Write (0, 1), true) ],
          (0, Op.Write (0, 2), true) );
        ( "cc-lfcu failed CAS on a cached copy",
          Cc.Write_update,
          [ read ],
          (0, Op.Cas (0, 99, 1), false) ) ]
  in
  List.iter
    (fun (name, protocol, warm, (pid, inv, wrote)) ->
      let m =
        List.fold_left
          (fun m (pid, inv, wrote) -> fst (Cost_model.account m pid inv ~wrote))
          (cc ~protocol ()) warm
      in
      let m', c = Cost_model.account m pid inv ~wrote in
      check_true (name ^ ": local") (not c.Cost_model.rmr);
      check_true (name ^ ": model physically unchanged") (m' == m);
      let iters = 1000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (Cost_model.account m pid inv ~wrote))
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int iters in
      check_true
        (Printf.sprintf "%s: %.1f minor words per account, want < 12" name
           words)
        (words < 12.))
    cases

(* --- message accounting (Sec. 8) --- *)

let share_with_k_readers ~k m =
  (* k distinct processes cache address 0. *)
  List.fold_left
    (fun m (pid, inv, wrote) -> fst (Cost_model.account m pid inv ~wrote))
    m
    (List.init k (fun p -> (p + 1, Op.Read 0, false)))

let test_messages_bus_vs_directory () =
  let writer_messages ic =
    let m = share_with_k_readers ~k:5 (cc ~interconnect:ic ~n:8 ()) in
    let _, c = Cost_model.account m 0 (Op.Write (0, 1)) ~wrote:true in
    c.Cost_model.messages
  in
  check_int "bus: one broadcast (plus memory)" 2 (writer_messages Cc.Bus);
  check_int "precise directory: one per copy (plus memory)" 6
    (writer_messages Cc.Directory_precise);
  check_int "limited directory overflows to broadcast" 8
    (writer_messages (Cc.Directory_limited 2))

let test_limited_directory_precise_when_small () =
  let m = share_with_k_readers ~k:2 (cc ~interconnect:(Cc.Directory_limited 4) ~n:8 ()) in
  let _, c = Cost_model.account m 0 (Op.Write (0, 1)) ~wrote:true in
  check_int "under the limit: precise" 3 c.Cost_model.messages

let test_invalidations_bounded_by_rmrs () =
  (* Sec. 8: "the total number of invalidations is bounded from above by
     the number of RMRs" — with a precise directory, messages count actual
     invalidations + fetches, each of which is matched by an RMR that
     created or re-created the copy. *)
  let layout, _ = layout_with 1 in
  ignore layout;
  let m = cc ~interconnect:Cc.Directory_precise ~n:4 () in
  let steps =
    [ (0, Op.Read 0, false); (1, Op.Read 0, false); (2, Op.Write (0, 1), true);
      (0, Op.Read 0, false); (3, Op.Write (0, 2), true); (1, Op.Read 0, false) ]
  in
  let costs = account_seq m steps in
  check_true "messages stay within 2x RMRs (fetch + invalidation each)"
    (messages costs <= 2 * rmrs costs)

(* Property: for every protocol, predictions that commit ([Some b]) match
   the accounted classification when the operation's nontriviality is
   whatever the predictor assumed — checked here for reads and writes whose
   outcome is fixed. *)
let prop_predict_consistent =
  qcheck "cc predict is consistent with account for reads and writes"
    QCheck.(
      pair (int_bound 2)
        (small_list (pair (int_bound 3) (pair (int_bound 2) QCheck.bool))))
    (fun (proto_i, script) ->
      let protocol =
        match proto_i with
        | 0 -> Cc.Write_through
        | 1 -> Cc.Write_back
        | _ -> Cc.Write_update
      in
      let m0 = cc ~protocol () in
      let final =
        List.fold_left
          (fun m (pid, (a, is_write)) ->
            let inv = if is_write then Op.Write (a, 1) else Op.Read a in
            let predicted = Cost_model.predict m pid inv in
            let m, c = Cost_model.account m pid inv ~wrote:is_write in
            (match predicted with
            | Some b when b <> c.Cost_model.rmr ->
              QCheck.Test.fail_reportf "prediction mismatch"
            | _ -> ());
            m)
          m0 script
      in
      ignore final;
      true)

(* Stronger property over the full operation vocabulary: replay a random
   script against real cell contents (so [wrote] is truthful, including
   failed CAS/SC), and require that whenever a model commits to a
   prediction ([Some b]), accounting the very same step classifies it the
   same way — under the DSM model and every CC protocol.  [None]
   predictions (outcome-dependent CC cases) are exercised but unchecked,
   as the contract allows. *)
let arb_full_step =
  QCheck.make
    ~print:(fun (pid, inv) ->
      Printf.sprintf "p%d:%s" pid (Op.show_invocation inv))
    QCheck.Gen.(
      pair (int_bound 3)
        (oneof
           [ map (fun a -> Op.Read a) (int_bound 2);
             map2 (fun a v -> Op.Write (a, v)) (int_bound 2) (int_bound 3);
             map3
               (fun a e u -> Op.Cas (a, e, u))
               (int_bound 2) (int_bound 3) (int_bound 3);
             map (fun a -> Op.Ll a) (int_bound 2);
             map2 (fun a v -> Op.Sc (a, v)) (int_bound 2) (int_bound 3);
             map2 (fun a d -> Op.Faa (a, d)) (int_bound 2) (int_bound 3);
             map2 (fun a v -> Op.Fas (a, v)) (int_bound 2) (int_bound 3);
             map (fun a -> Op.Tas a) (int_bound 2) ]))

let prop_predict_never_contradicts_account =
  qcheck "predict Some b matches account across all models and op kinds"
    QCheck.(small_list arb_full_step)
    (fun script ->
      let layout, vars = layout_with 3 in
      let addr i = Var.addr vars.(i) in
      (* Replay once against concrete cell contents to learn each step's
         actual nontriviality, rebasing the generator's small addresses
         onto the layout's. *)
      let values = Hashtbl.create 3 in
      let links = Hashtbl.create 8 in
      let steps =
        List.map
          (fun (pid, inv) ->
            let inv =
              match inv with
              | Op.Read a -> Op.Read (addr a)
              | Op.Write (a, v) -> Op.Write (addr a, v)
              | Op.Cas (a, e, u) -> Op.Cas (addr a, e, u)
              | Op.Ll a -> Op.Ll (addr a)
              | Op.Sc (a, v) -> Op.Sc (addr a, v)
              | Op.Faa (a, d) -> Op.Faa (addr a, d)
              | Op.Fas (a, v) -> Op.Fas (addr a, v)
              | Op.Tas a -> Op.Tas (addr a)
            in
            let a = Op.addr_of inv in
            let current = Option.value ~default:0 (Hashtbl.find_opt values a) in
            let ll_valid = Hashtbl.mem links (pid, a) in
            let e = Op.execute ~current ~ll_valid inv in
            (match inv with Op.Ll _ -> Hashtbl.replace links (pid, a) () | _ -> ());
            (match e.Op.new_value with
            | Some v ->
              Hashtbl.replace values a v;
              (* A nontrivial operation breaks every link on the cell. *)
              Hashtbl.iter
                (fun (q, b) () -> if b = a then Hashtbl.remove links (q, b))
                (Hashtbl.copy links)
            | None -> ());
            (match inv with Op.Sc _ -> Hashtbl.remove links (pid, a) | _ -> ());
            (pid, inv, e.Op.new_value <> None))
          script
      in
      let models =
        Cost_model.dsm layout
        :: List.map
             (fun protocol -> cc ~protocol ~n:4 ())
             [ Cc.Write_through; Cc.Write_back; Cc.Write_update ]
      in
      List.for_all
        (fun m0 ->
          let final =
            List.fold_left
              (fun m (pid, inv, wrote) ->
                let predicted = Cost_model.predict m pid inv in
                let m, c = Cost_model.account m pid inv ~wrote in
                (match predicted with
                | Some b when b <> c.Cost_model.rmr ->
                  QCheck.Test.fail_reportf
                    "%s: predicted rmr=%b but accounted rmr=%b for p%d:%s"
                    (Cost_model.name m) b c.Cost_model.rmr pid
                    (Op.show_invocation inv)
                | _ -> ());
                m)
              m0 steps
          in
          ignore final;
          true)
        models)

let suite =
  [ case "dsm homing" test_dsm_homing;
    case "dsm remote spin is unbounded" test_dsm_spin_unbounded;
    case "dsm prediction is exact" test_dsm_predict_exact;
    case "cc: repeated reads cost one RMR" test_cc_repeated_reads_one_rmr;
    case "cc: invalidation costs one more" test_cc_invalidation_then_one_more;
    case "cc: trivial ops preserve caches" test_cc_trivial_op_preserves_cache;
    case "cc-wt: writes always remote" test_cc_wt_writes_always_remote;
    case "cc-wb: owner writes local" test_cc_wb_owner_writes_local;
    case "cc-wb: ownership migration" test_cc_wb_ownership_migrates;
    case "lfcu: failed comparison local" test_lfcu_failed_comparison_local;
    case "lfcu: updates preserve copies" test_lfcu_update_preserves_copies;
    case "cc: hits leave the model unchanged and allocate little"
      test_cc_hit_path_unchanged;
    case "messages: bus vs directory" test_messages_bus_vs_directory;
    case "limited directory precise when small" test_limited_directory_precise_when_small;
    case "invalidations bounded by RMRs" test_invalidations_bounded_by_rmrs;
    prop_predict_consistent;
    prop_predict_never_contradicts_account ]
