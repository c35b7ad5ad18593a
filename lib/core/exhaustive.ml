(* The `separation explore` scenario: Spec 4.1 over every interleaving of
   one Signal() per signaler and bounded Poll() loops per waiter. *)

open Smr

type setup = {
  algorithm : (module Signaling.POLLING);
  n : int;
  waiters : int;
  polls : int;
  signalers : int;
  static_indep : bool;
  cap : int;
  dedup : bool;
  por : bool;
  symmetry : bool;
}

let setup algorithm =
  { algorithm;
    n = 16;
    waiters = 2;
    polls = 2;
    signalers = 1;
    static_indep = false;
    cap = 1_000_000;
    dedup = true;
    por = true;
    symmetry = true }

let signaler_pids s = List.init s.signalers Fun.id
let waiter_pids s = List.init s.waiters (fun i -> i + s.signalers)

let config s =
  Signaling.config ~n:s.n ~waiters:(waiter_pids s) ~signalers:(signaler_pids s)

let validate s =
  let (module A : Signaling.POLLING) = s.algorithm in
  let nonneg = Signaling.at_least 0 in
  let ( let* ) = Result.bind in
  let* () = Signaling.at_least 1 "-n" s.n in
  let* () = nonneg "--waiters" s.waiters in
  let* () = nonneg "--signalers" s.signalers in
  let* () = nonneg "--polls" s.polls in
  let* () = nonneg "--cap" s.cap in
  Signaling.validate_config A.flexibility (config s)

type prepared = {
  layout : Var.layout;
  scripts : (Op.pid * Explore.script) list;
  commute : Op.invocation -> Op.invocation -> bool;
  symmetry : Sim.Pid_set.t;
  facts : Analysis.Independence.facts option;
}

let prepare s =
  (match validate s with Ok () -> () | Error msg -> invalid_arg msg);
  let n = s.n in
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate s.algorithm ctx (config s) in
  let layout = Var.Ctx.freeze ctx in
  let scripts =
    List.map
      (fun p ->
        (p, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal p) ]))
      (signaler_pids s)
    @ List.map
        (fun w ->
          ( w,
            Explore.repeat ~limit:s.polls
              ~until:(fun r -> r = 1)
              (Signaling.poll_label, inst.Signaling.i_poll w) ))
        (waiter_pids s)
  in
  (* The facts are computed from the CFGs of the very programs the scripts
     run, so the extended relation is sound for this search
     ([Explore.check]'s [commute] contract).  An incomplete unfolding
     yields no facts and the generic relation stands. *)
  let facts =
    if not s.static_indep then None
    else begin
      let values = Analysis.Lint.value_domain ~n ~layout in
      let extract pid prog =
        Analysis.Cfg.extract ~values ~exclusive:(fun _ -> false) ~pid prog
      in
      Some
        (Analysis.Independence.of_cfgs
           (List.map
              (fun p -> (p, extract p (inst.Signaling.i_signal p)))
              (signaler_pids s)
           @ List.map
               (fun w -> (w, extract w (inst.Signaling.i_poll w)))
               (waiter_pids s)))
    end
  in
  let commute =
    match facts with
    | None -> Op.commute
    | Some f -> Analysis.Independence.commute f
  in
  (* Detection runs on the waiters' poll calls — the scripts wrapping them
     ([Explore.repeat] with identical limit/until) branch only on own call
     counts and results, so script symmetry follows from call symmetry;
     Spec 4.1 is waiter-permutation-invariant by construction (it reads
     labels, results and interval relations, never pids). *)
  let symmetry =
    if not s.symmetry then Sim.Pid_set.empty
    else
      Explore.detect_symmetry
        ~values:(Analysis.Lint.value_domain ~n ~layout)
        (List.map
           (fun w -> (w, (Signaling.poll_label, inst.Signaling.i_poll w)))
           (waiter_pids s))
  in
  { layout; scripts; commute; symmetry; facts }

let search s p =
  Explore.check ~max_histories:s.cap ~dedup:s.dedup ~por:s.por
    ~commute:p.commute ~symmetry:p.symmetry ~layout:p.layout
    ~model:(Cost_model.dsm p.layout) ~n:s.n ~scripts:p.scripts
    ~property:Signaling.polling_ok ()

let table s p (res : Explore.result) =
  let (module A : Signaling.POLLING) = s.algorithm in
  let st = res.Explore.stats in
  Results.make ~experiment:"explore"
    ~title:
      (Printf.sprintf "Exhaustive check of %s (N=%d, %d waiters)" A.name s.n
         s.waiters)
    ~claim:"Specification 4.1 holds on every explored interleaving"
    ~params:
      Results.
        [ ("algorithm", text A.name); ("n", int s.n); ("waiters", int s.waiters);
          ("polls", int s.polls); ("signalers", int s.signalers);
          ("cap", int s.cap); ("dedup", bool s.dedup); ("por", bool s.por);
          ("static_indep", bool s.static_indep);
          ("symmetry", int (Sim.Pid_set.cardinal p.symmetry)) ]
    ~columns:
      Results.
        [ measure "histories"; measure "truncated"; measure "complete";
          measure "violation"; measure "states"; measure "dedup_hits";
          measure "por_prunes"; measure "max_depth"; measure "orbit_hits";
          measure "fp_distinct"; measure "fp_collisions"; measure "fp_resizes";
          measure "fp_slots" ]
    Results.
      [ [ int res.Explore.histories; int res.Explore.truncated;
          bool res.Explore.complete; bool (res.Explore.violation <> None);
          int st.Explore.states; int st.Explore.dedup_hits;
          int st.Explore.por_prunes; int st.Explore.max_depth;
          int st.Explore.orbit_hits; int st.Explore.fp_distinct;
          int st.Explore.fp_collisions; int st.Explore.fp_resizes;
          int st.Explore.fp_slots ] ]
