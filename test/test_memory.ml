(* Tests for the persistent memory store: values, last-writer tracking,
   writer sets and load-link validity. *)

open Smr
open Test_util

let setup () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 7 in
  let y = Var.Ctx.int ctx ~name:"y" ~home:(Var.Module 1) 0 in
  let layout = Var.Ctx.freeze ctx in
  (Memory.create layout, x, y)

let test_initial_values () =
  let mem, x, y = setup () in
  check_int "declared initial value" 7 (Memory.get mem (Var.addr x));
  check_int "zero default" 0 (Memory.get mem (Var.addr y));
  check_true "no initial writer" (Memory.last_writer mem (Var.addr x) = None)

let test_write_updates () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let { Memory.memory; response; wrote; read_from } =
    Memory.apply mem ~pid:2 (Op.Write (a, 55))
  in
  check_int "write responds 0" 0 response;
  check_true "write is nontrivial" wrote;
  check_true "blind write observes nothing" (read_from = None);
  check_int "value updated" 55 (Memory.get memory a);
  check_true "last writer recorded" (Memory.last_writer memory a = Some 2);
  check_true "writer set" (Memory.writers memory a = [ 2 ])

let test_persistence () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let applied = Memory.apply mem ~pid:0 (Op.Write (a, 99)) in
  check_int "old snapshot unchanged" 7 (Memory.get mem a);
  check_int "new state updated" 99 (Memory.get applied.Memory.memory a)

let test_read_from_tracks_last_writer () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:3 (Op.Write (a, 1))).Memory.memory in
  let r = Memory.apply m1 ~pid:0 (Op.Read a) in
  check_true "reader sees writer" (r.Memory.read_from = Some 3);
  (* A failed CAS also observes the value. *)
  let c = Memory.apply m1 ~pid:0 (Op.Cas (a, 42, 43)) in
  check_int "cas failed" 0 c.Memory.response;
  check_true "failed cas observes last writer" (c.Memory.read_from = Some 3)

let test_multi_writer_set () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:1 (Op.Write (a, 1))).Memory.memory in
  let m2 = (Memory.apply m1 ~pid:2 (Op.Write (a, 2))).Memory.memory in
  let m3 = (Memory.apply m2 ~pid:1 (Op.Write (a, 3))).Memory.memory in
  check_true "writers accumulate" (List.sort compare (Memory.writers m3 a) = [ 1; 2 ]);
  check_true "last writer is most recent" (Memory.last_writer m3 a = Some 1)

let test_failed_cas_does_not_take_last_writer () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:1 (Op.Write (a, 1))).Memory.memory in
  let c = Memory.apply m1 ~pid:2 (Op.Cas (a, 9, 10)) in
  check_false "failed cas not a write" c.Memory.wrote;
  check_true "last writer unchanged"
    (Memory.last_writer c.Memory.memory a = Some 1)

let test_ll_sc_protocol () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  (* p0 links, then stores conditionally: succeeds. *)
  let m1 = (Memory.apply mem ~pid:0 (Op.Ll a)).Memory.memory in
  check_true "link recorded" (Memory.ll_valid m1 ~pid:0 a);
  let sc = Memory.apply m1 ~pid:0 (Op.Sc (a, 5)) in
  check_int "sc succeeds" 1 sc.Memory.response;
  (* The successful SC invalidates every link, including p0's own. *)
  check_false "links cleared" (Memory.ll_valid sc.Memory.memory ~pid:0 a)

let test_sc_broken_by_interfering_write () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:0 (Op.Ll a)).Memory.memory in
  let m2 = (Memory.apply m1 ~pid:1 (Op.Write (a, 9))).Memory.memory in
  check_false "write invalidates link" (Memory.ll_valid m2 ~pid:0 a);
  let sc = Memory.apply m2 ~pid:0 (Op.Sc (a, 5)) in
  check_int "sc fails after interference" 0 sc.Memory.response;
  check_int "failed sc leaves value" 9 (Memory.get sc.Memory.memory a)

let test_sc_not_broken_by_read () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:0 (Op.Ll a)).Memory.memory in
  let m2 = (Memory.apply m1 ~pid:1 (Op.Read a)).Memory.memory in
  let m3 = (Memory.apply m2 ~pid:1 (Op.Cas (a, 999, 0))).Memory.memory in
  (* the CAS failed, so it is trivial and must not break the link *)
  check_true "trivial ops preserve link" (Memory.ll_valid m3 ~pid:0 a);
  let sc = Memory.apply m3 ~pid:0 (Op.Sc (a, 5)) in
  check_int "sc still succeeds" 1 sc.Memory.response

let test_two_links () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  let m1 = (Memory.apply mem ~pid:0 (Op.Ll a)).Memory.memory in
  let m2 = (Memory.apply m1 ~pid:1 (Op.Ll a)).Memory.memory in
  let sc0 = Memory.apply m2 ~pid:0 (Op.Sc (a, 5)) in
  check_int "first sc wins" 1 sc0.Memory.response;
  let sc1 = Memory.apply sc0.Memory.memory ~pid:1 (Op.Sc (a, 6)) in
  check_int "second sc loses" 0 sc1.Memory.response

(* Reference model: fold invocations over a plain association list and
   compare final values with Memory. *)
let prop_matches_reference =
  let arb_ops =
    QCheck.small_list
      (QCheck.make
         QCheck.Gen.(
           pair (int_bound 3)
             (oneof
                [ map (fun a -> Op.Read a) (int_bound 3);
                  map2 (fun a v -> Op.Write (a, v)) (int_bound 3) (int_bound 9);
                  map3 (fun a e u -> Op.Cas (a, e, u)) (int_bound 3) (int_bound 9)
                    (int_bound 9);
                  map2 (fun a d -> Op.Faa (a, d)) (int_bound 3) (int_bound 9);
                  map2 (fun a v -> Op.Fas (a, v)) (int_bound 3) (int_bound 9);
                  map (fun a -> Op.Tas a) (int_bound 3) ])))
  in
  qcheck "memory agrees with a reference fold" arb_ops (fun ops ->
      let layout = Var.Ctx.freeze (Var.Ctx.create ()) in
      let mem = Memory.create layout in
      let reference = Hashtbl.create 8 in
      let get_ref a = Option.value ~default:0 (Hashtbl.find_opt reference a) in
      let final =
        List.fold_left
          (fun mem (pid, inv) ->
            let a = Op.addr_of inv in
            let expected = Op.execute ~current:(get_ref a) ~ll_valid:false inv in
            (match expected.Op.new_value with
            | Some v -> Hashtbl.replace reference a v
            | None -> ());
            let applied = Memory.apply mem ~pid inv in
            if applied.Memory.response <> expected.Op.response then
              QCheck.Test.fail_reportf "response mismatch on %s"
                (Op.show_invocation inv);
            applied.Memory.memory)
          mem ops
      in
      List.for_all (fun a -> Memory.get final a = get_ref a) [ 0; 1; 2; 3 ])

(* --- incremental behavioral hash (the explorer's dedup hot path) --- *)

let apply_m m pid inv = (Memory.apply m ~pid inv).Memory.memory

let test_fp_hash_order_independent () =
  let mem, x, y = setup () in
  let a = Var.addr x and b = Var.addr y in
  let m_ab = apply_m (apply_m mem 1 (Op.Write (a, 5))) 2 (Op.Write (b, 9)) in
  let m_ba = apply_m (apply_m mem 2 (Op.Write (b, 9))) 1 (Op.Write (a, 5)) in
  check_true "independent writes commute in the hash"
    (Memory.fp_hash m_ab = Memory.fp_hash m_ba);
  check_true "and in the structural comparison"
    (Memory.same_fingerprint m_ab m_ba)

let test_fp_writeback_restores () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  (* x starts at 7: write it away, then back.  Only behavior counts — the
     last-writer/writer-set bookkeeping the write-back leaves behind feeds
     the Section 6 analyses, not operation responses. *)
  let m1 = apply_m mem 1 (Op.Write (a, 42)) in
  check_false "changed cell, distinct fingerprint"
    (Memory.same_fingerprint mem m1);
  let m2 = apply_m m1 2 (Op.Write (a, 7)) in
  check_int "written-back store hashes as never touched" (Memory.fp_hash mem)
    (Memory.fp_hash m2);
  check_true "and compares equal to it" (Memory.same_fingerprint mem m2)

let test_fp_sees_load_links () =
  let mem, x, _ = setup () in
  let a = Var.addr x in
  (* A valid load-link changes a future Sc's response, so it must be part
     of the behavioral identity even though the cell's value is intact. *)
  let m1 = apply_m mem 1 (Op.Ll a) in
  check_false "valid link is observable" (Memory.same_fingerprint mem m1);
  check_true "hash moved with it" (Memory.fp_hash mem <> Memory.fp_hash m1)

let test_fp_hash_sees_swapped_values () =
  (* Per-cell contributions are summed, so they must not be affine in the
     value: swapping the values of two cells is a different store. *)
  let ctx = Var.Ctx.create () in
  let v = Var.Ctx.int_vec ctx ~name:"V" ~home:(fun i -> Var.Module i) 3 (fun _ -> 0) in
  let mem = Memory.create (Var.Ctx.freeze ctx) in
  let v1 = Var.vec_addr v 1 and v2 = Var.vec_addr v 2 in
  let m12 = apply_m (apply_m mem 0 (Op.Write (v1, 1))) 0 (Op.Write (v2, 2)) in
  let m21 = apply_m (apply_m mem 0 (Op.Write (v1, 2))) 0 (Op.Write (v2, 1)) in
  check_false "swapped stores differ" (Memory.same_fingerprint m12 m21);
  check_true "and hash differently" (Memory.fp_hash m12 <> Memory.fp_hash m21)

let suite =
  [ case "initial values" test_initial_values;
    case "write updates value and writer" test_write_updates;
    case "persistence of snapshots" test_persistence;
    case "read_from tracks last writer" test_read_from_tracks_last_writer;
    case "multi-writer set accumulates" test_multi_writer_set;
    case "failed cas leaves last writer" test_failed_cas_does_not_take_last_writer;
    case "ll/sc basic protocol" test_ll_sc_protocol;
    case "sc broken by interfering write" test_sc_broken_by_interfering_write;
    case "sc survives trivial operations" test_sc_not_broken_by_read;
    case "competing links: one sc wins" test_two_links;
    case "fp hash: independent writes commute" test_fp_hash_order_independent;
    case "fp hash: write-back restores identity" test_fp_writeback_restores;
    case "fp hash: load-links are observable" test_fp_sees_load_links;
    case "fp hash: swapped values hash apart" test_fp_hash_sees_swapped_values;
    prop_matches_reference ]
