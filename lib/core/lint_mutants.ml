open Smr

let remote_spin_name = "mutant-remote-spin"

let cas_flag_name = "mutant-cas-flag"

let amortized_scan_name = "mutant-amortized-scan"

(* dsm-fixed's broadcast shape, but the flags land in the shared module:
   the Wait() spin is remote, contradicting the local-spin claim below. *)
module Remote_spin_wait = struct
  type t = { v : bool Var.t array }

  let create ctx ~n =
    { v =
        Var.Ctx.bool_array ctx ~name:"V"
          ~home:(fun _ -> Var.Shared)
          n
          (fun _ -> false) }

  let signal t _p =
    Program.seq
      (List.init (Array.length t.v) (fun j -> Program.write t.v.(j) true))

  let wait t p = Program.await t.v.(p) Fun.id

  let claims ~n =
    Analysis.Claims.
      { single_writer = [ "V" ];
        calls =
          [ ("signal", { spin = No_spin; dsm_rmrs = Rmr n; cc_amortized = Amortized { steady = Unbounded; refills = 64 } });
            ("wait", { spin = Local_spin (* the lie *); dsm_rmrs = Unbounded; cc_amortized = Amortized { steady = Unbounded; refills = 64 } }) ] }
end

(* cc-flag, except Signal() sneaks in a CAS while the declared primitive
   class still says reads/writes only. *)
module Cas_flag = struct
  type t = { flag : bool Var.t }

  let primitives = [ Op.Reads_writes (* the lie *) ]

  let create ctx = { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false }

  let signal t _p =
    Program.map ignore (Program.cas t.flag ~expected:false ~update:true)

  let poll t p =
    let _ = p in
    Program.read t.flag

  let claims ~n:_ =
    Analysis.Claims.
      { single_writer = [ "B" ];
        calls =
          [ ("signal", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Unbounded; refills = 64 } });
            ("poll", { spin = No_spin; dsm_rmrs = Rmr 1; cc_amortized = Amortized { steady = Unbounded; refills = 64 } }) ] }
end

(* cc-flag with a hidden periodic remote scan: Signal() also reads every
   waiter's heartbeat cell — cells the waiters themselves write — before
   setting the flag.  Each heartbeat read is re-invalidated by the waiter's
   next poll, so the signaler's cache never reaches a free fixpoint: the
   true refill count is n-1, while the claim below still advertises the
   cc-flag headline of one RMR per Signal with no surcharge.  The
   amortized check must reject exactly this. *)
module Amortized_scan = struct
  type t = { flag : bool Var.t; heartbeat : bool Var.t array }

  let create ctx ~n =
    { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false;
      heartbeat =
        Var.Ctx.bool_array ctx ~name:"hb"
          ~home:(fun _ -> Var.Shared)
          n
          (fun _ -> false) }

  let signal t _p =
    Program.seq
      (List.init
         (Array.length t.heartbeat - 1)
         (fun j -> Program.map ignore (Program.read t.heartbeat.(j + 1)))
      @ [ Program.write t.flag true ])

  let poll t p =
    Program.bind (Program.write t.heartbeat.(p) true) (fun () ->
        Program.read t.flag)

  let claims ~n:_ =
    Analysis.Claims.
      { single_writer = [ "B" ];
        calls =
          [ ("signal",
             { spin = No_spin;
               dsm_rmrs = Unbounded;
               (* the lie: the scan makes the real steady state n-1+(n-1)r *)
               cc_amortized = Amortized { steady = Rmr 1; refills = 0 } });
            ("poll",
             { spin = No_spin;
               dsm_rmrs = Unbounded;
               cc_amortized = Amortized { steady = Rmr 1; refills = 1 } }) ] }
end

let unit_call label pids program =
  { Analysis.Registry.label;
    pids;
    program = (fun p -> Smr.Program.map (fun () -> 0) (program p)) }

let register ~n =
  let signalers = [ 0 ] and waiters = List.init (n - 1) (fun i -> i + 1) in
  (let ctx = Var.Ctx.create () in
   let t = Remote_spin_wait.create ctx ~n in
   let layout = Var.Ctx.freeze ctx in
   Analysis.Registry.register
     (Analysis.Registry.entry ~mutant:true ~name:remote_spin_name ~n ~layout
        ~primitives:[ Op.Reads_writes ]
        ~claims:(Remote_spin_wait.claims ~n)
        [ unit_call "signal" signalers (Remote_spin_wait.signal t);
          unit_call "wait" waiters (Remote_spin_wait.wait t) ]));
  (let ctx = Var.Ctx.create () in
   let t = Cas_flag.create ctx in
   let layout = Var.Ctx.freeze ctx in
   Analysis.Registry.register
     (Analysis.Registry.entry ~mutant:true ~name:cas_flag_name ~n ~layout
        ~primitives:Cas_flag.primitives ~claims:(Cas_flag.claims ~n)
        [ unit_call "signal" signalers (Cas_flag.signal t);
          { Analysis.Registry.label = "poll";
            pids = waiters;
            program =
              (fun p ->
                Smr.Program.map
                  (fun b -> if b then 1 else 0)
                  (Cas_flag.poll t p)) } ]));
  let ctx = Var.Ctx.create () in
  let t = Amortized_scan.create ctx ~n in
  let layout = Var.Ctx.freeze ctx in
  Analysis.Registry.register
    (Analysis.Registry.entry ~mutant:true ~name:amortized_scan_name ~n ~layout
       ~primitives:[ Op.Reads_writes ]
       ~claims:(Amortized_scan.claims ~n)
       [ unit_call "signal" signalers (Amortized_scan.signal t);
         { Analysis.Registry.label = "poll";
           pids = waiters;
           program =
             (fun p ->
               Smr.Program.map
                 (fun b -> if b then 1 else 0)
                 (Amortized_scan.poll t p)) } ])
