(* Layer loops: tight loops over one layer each, reporting host ns and
   minor words per operation.  Inputs are built from the workloads' own
   algorithms and layouts: dsm-broadcast Signal() programs (load-dsm,
   adversary), the cc-flag machine under write-through caches (load-cc),
   the explore-sym slot arrays and the explore-plain memory layout. *)

open Smr

(* Runs [f] (which returns how many operations it performed) until at least
   [min_s] seconds of timed work have accumulated; returns ns and minor
   words per operation. *)
let measure ~min_s f =
  let ns = ref 0 and ops = ref 0 and words = ref 0.0 in
  let min_ns = int_of_float (min_s *. 1e9) in
  while !ns < min_ns || !ops = 0 do
    let w0 = Gc.minor_words () in
    let t0 = Span.now_ns () in
    let k = f () in
    ns := !ns + (Span.now_ns () - t0);
    words := !words +. (Gc.minor_words () -. w0);
    ops := !ops + k
  done;
  (float_of_int !ns /. float_of_int !ops, !words /. float_of_int !ops)

let ns ~min_s f = fst (measure ~min_s f)

(* [reps] calls of [f], counted as [reps] operations. *)
let repeat reps f () =
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  reps

let clock_ns ~min_s = ns ~min_s (repeat 1000 Span.now_ns)

let instance ?cfg name ~n =
  let m = Option.get (Core.Experiment.find_algorithm name) in
  let cfg =
    match cfg with Some c -> c | None -> Core.Experiment.config_for m ~n
  in
  let ctx = Var.Ctx.create () in
  let inst = Core.Signaling.instantiate m ctx cfg in
  (inst, Var.Ctx.freeze ctx)

(* [Program.length_exn] over a dsm-broadcast Signal() (one write per
   process) nested under [depth] left-associated binds: every step's
   continuation passes through each enclosing bind. *)
let program ~min_s ~n =
  let inst, _ = instance "dsm-broadcast" ~n in
  let signal = inst.Core.Signaling.i_signal 0 in
  let rec nest d p = if d = 0 then p else Program.bind (nest (d - 1) p) Program.return in
  List.concat_map
    (fun d ->
      let p = nest d signal in
      let ns, words =
        measure ~min_s (fun () -> Program.length_exn ~respond:(fun _ -> 0) p)
      in
      [ (Printf.sprintf "program.ns_per_step.d%d" d, ns);
        (Printf.sprintf "program.words_per_step.d%d" d, words) ])
    [ 0; 4; 16; 64 ]

let flat_steps flat f =
  let s0 = Flat_sim.total_steps flat in
  f ();
  Flat_sim.total_steps flat - s0

(* The flat engine: dsm-broadcast signals under DSM (load-dsm), and cc-flag
   polls by every waiter then one signal under write-through caches
   (load-cc); a snapshot/restore pair of the latter machine. *)
let flat_sim ~min_s ~n =
  let inst, layout = instance "dsm-broadcast" ~n in
  let flat = Flat_sim.create ~model:Flat_sim.Dsm ~layout ~n () in
  let signal = inst.Core.Signaling.i_signal 0 in
  let dsm =
    ns ~min_s (fun () ->
        flat_steps flat (fun () ->
            ignore (Flat_sim.run_call flat 0 ~label:Core.Signaling.signal_label signal)))
  in
  let inst, layout = instance "cc-flag" ~n in
  let flat =
    Flat_sim.create ~model:(Core.Loadgen.flat_model ~ways:8 `Cc_wt) ~layout ~n ()
  in
  let polls = Array.init n inst.Core.Signaling.i_poll in
  let signal = inst.Core.Signaling.i_signal 0 in
  let cc_wt =
    ns ~min_s (fun () ->
        flat_steps flat (fun () ->
            for p = 1 to n - 1 do
              ignore (Flat_sim.run_call flat p ~label:Core.Signaling.poll_label polls.(p))
            done;
            ignore (Flat_sim.run_call flat 0 ~label:Core.Signaling.signal_label signal)))
  in
  let snapshot_restore =
    ns ~min_s (fun () ->
        Flat_sim.restore flat (Flat_sim.snapshot flat);
        1)
  in
  [ ("flat_sim.advance_ns.dsm", dsm); ("flat_sim.advance_ns.cc_wt", cc_wt);
    ("flat_sim.snapshot_restore_ns", snapshot_restore) ]

(* [Explore.Testing.canonicalize] on an explore-sym key: signaler mid-call,
   five symmetric waiters in distinct control states, listed out of
   canonical order so a relabeling is found every time. *)
let canonicalize ~min_s =
  let open Explore.Testing in
  let symmetry = Sim.Pid_set.of_list [ 1; 2; 3; 4; 5 ] in
  let poll = Core.Signaling.poll_label in
  let sample =
    [| running ~label:Core.Signaling.signal_label ~seq:0 ~resps_rev:[]
         ~snap:[| 0; 2; 0; 1; 0; 0 |];
       idle ~begun:2 ~last:(Some 0);
       running ~label:poll ~seq:1 ~resps_rev:[ 0 ] ~snap:[| 0; 1; 0; 1; 0; 0 |];
       idle ~begun:1 ~last:(Some 0);
       running ~label:poll ~seq:0 ~resps_rev:[] ~snap:[| 0; 2; 0; 1; 0; 0 |];
       idle ~begun:0 ~last:None |]
  in
  [ ( "explore.canonicalize_ns",
      ns ~min_s (repeat 100 (fun () -> canonicalize ~symmetry sample)) ) ]

(* Memories over the explore-plain layout (dsm-broadcast, N=4): the
   explorer's state identity is [Memory.fp_hash] confirmed by
   [Memory.same_fingerprint], interned by [Fp_intern]. *)
let memories layout count =
  let addrs = Var.layout_addrs layout in
  Array.init count (fun i ->
      List.fold_left
        (fun (m, a) addr ->
          let v = if a = 0 then i + 1 else (i lsr a) land 1 in
          ((Memory.apply m ~pid:a (Op.Write (addr, v))).Memory.memory, a + 1))
        (Memory.create layout, 0) addrs
      |> fst)

let memory_and_intern ~min_s ~keys =
  let _, layout =
    instance "dsm-broadcast" ~n:4
      ~cfg:(Core.Signaling.config ~n:4 ~waiters:[ 1; 2; 3 ] ~signalers:[ 0 ])
  in
  let mems = memories layout keys and twins = memories layout keys in
  let intern_all t ms =
    Array.iter (fun m -> ignore (Fp_intern.intern t ~hash:(Memory.fp_hash m) m)) ms;
    Array.length ms
  in
  let table () = Fp_intern.create ~equal:Memory.same_fingerprint () in
  let miss = ns ~min_s (fun () -> intern_all (table ()) mems) in
  let full = table () in
  ignore (intern_all full mems);
  let hit = ns ~min_s (fun () -> intern_all full twins) in
  let addrs = Array.of_list (Var.layout_addrs layout) in
  let invs =
    Array.init 64 (fun i ->
        let a = addrs.(i mod Array.length addrs) in
        if i land 1 = 0 then Op.Read a else Op.Write (a, i land 3))
  in
  let m0 = Memory.create layout in
  let apply_ns, apply_words =
    measure ~min_s (fun () ->
        let m = ref m0 in
        Array.iteri
          (fun i inv -> m := (Memory.apply !m ~pid:(i mod 4) inv).Memory.memory)
          invs;
        Array.length invs)
  in
  let a = mems.(keys - 1) and b = twins.(keys - 1) in
  [ ("fp_intern.intern_ns.miss", miss); ("fp_intern.intern_ns.hit", hit);
    ("memory.apply_ns", apply_ns); ("memory.apply_words", apply_words);
    ("memory.fp_hash_ns", ns ~min_s (repeat 1000 (fun () -> Memory.fp_hash a)));
    ( "memory.same_fingerprint_ns",
      ns ~min_s (repeat 1000 (fun () -> Memory.same_fingerprint a b)) ) ]

let sim_steps sim n =
  List.fold_left (fun acc p -> acc + Sim.step_count sim p) 0 (List.init n Fun.id)

(* One signal then one poll per waiter, [rounds] times, from [base]. *)
let sim_calls (inst : Core.Signaling.instance) ~n ~rounds base () =
  let sim = ref base in
  for _ = 1 to rounds do
    sim := fst (Sim.run_call !sim 0 ~label:Core.Signaling.signal_label (inst.i_signal 0));
    for p = 1 to n - 1 do
      sim := fst (Sim.run_call !sim p ~label:Core.Signaling.poll_label (inst.i_poll p))
    done
  done;
  sim_steps !sim n

(* The persistent machine: lean DSM stepping as the explorer runs it
   (explore-plain), full-history write-through caches (explore-sym's
   cc-flag), and erasing one waiter from an adversary-sized history. *)
let sim ~min_s ~erase_n =
  let n = 4 in
  let inst, layout =
    instance "dsm-broadcast" ~n
      ~cfg:(Core.Signaling.config ~n ~waiters:[ 1; 2; 3 ] ~signalers:[ 0 ])
  in
  let base = Sim.lean_mode (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n) in
  let lean_dsm = ns ~min_s (sim_calls inst ~n ~rounds:50 base) in
  let n = 6 in
  let inst, layout =
    instance "cc-flag" ~n
      ~cfg:(Core.Signaling.config ~n ~waiters:[ 1; 2; 3; 4; 5 ] ~signalers:[ 0 ])
  in
  let model = Cc.model ~protocol:Cc.Write_through ~interconnect:Cc.Bus ~n () in
  let cc_wt = ns ~min_s (sim_calls inst ~n ~rounds:50 (Sim.create ~model ~layout ~n)) in
  let n = erase_n in
  let pids = List.init n Fun.id in
  let inst, layout =
    instance "dsm-broadcast" ~n
      ~cfg:(Core.Signaling.config ~n ~waiters:pids ~signalers:pids)
  in
  let history =
    let sim = ref (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n) in
    for p = 1 to n - 1 do
      sim := fst (Sim.run_call !sim p ~label:Core.Signaling.poll_label (inst.i_poll p))
    done;
    fst (Sim.run_call !sim 0 ~label:Core.Signaling.signal_label (inst.i_signal 0))
  in
  let steps = sim_steps history n in
  let erase =
    ns ~min_s (fun () ->
        ignore (Sys.opaque_identity (Sim.erase history [ n - 1 ]));
        steps)
  in
  [ ("sim.advance_ns.lean_dsm", lean_dsm); ("sim.advance_ns.cc_wt", cc_wt);
    ("sim.erase_ns_per_step", erase) ]

(* Every loop; [smoke] shrinks inputs and timed work to a quick pass. *)
let all ~smoke =
  let min_s = if smoke then 0.002 else 0.1 in
  let n = if smoke then 65 else 1025 in
  program ~min_s ~n
  @ flat_sim ~min_s ~n
  @ canonicalize ~min_s
  @ memory_and_intern ~min_s ~keys:(if smoke then 1024 else 65536)
  @ sim ~min_s ~erase_n:(if smoke then 64 else 1024)
  @ [ ("trace.clock_ns", clock_ns ~min_s) ]
