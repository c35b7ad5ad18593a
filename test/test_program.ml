(* Tests for the free-monad program DSL. *)

open Smr
open Program.Syntax
open Test_util

(* A toy responder: reads return the address, everything else responds 1. *)
let respond = function
  | Op.Read a | Op.Ll a -> a
  | Op.Write _ -> 0
  | _ -> 1

let var_at ctx a =
  (* Allocate until the variable lands at a chosen small address. *)
  let rec go () =
    let v = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
    if Var.addr v >= a then v else go ()
  in
  go ()

let test_return_has_no_steps () =
  let invs, v = interpret ~respond (Program.return 42) in
  check_int "no invocations" 0 (List.length invs);
  check_int "value" 42 v

let test_bind_sequences () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let prog =
    let* () = Program.write x 5 in
    let* v = Program.read x in
    Program.return (v + 1)
  in
  let invs, v = interpret ~respond prog in
  check_int "two invocations" 2 (List.length invs);
  (* respond gives Read its address back *)
  check_int "result uses read response" (Var.addr x + 1) v

let test_map () =
  let prog = Program.map (fun v -> v * 2) (Program.step (Op.Read 3)) in
  let _, v = interpret ~respond prog in
  check_int "map transforms" 6 v

let test_for_ () =
  let prog = Program.for_ 1 4 (fun i -> Program.map ignore (Program.step (Op.Read i))) in
  let invs, () = interpret ~respond prog in
  check_int "four iterations" 4 (List.length invs);
  check_true "in order"
    (List.map Op.addr_of invs = [ 1; 2; 3; 4 ])

let test_for_empty () =
  let invs, () =
    interpret ~respond (Program.for_ 3 2 (fun _ -> Program.return ()))
  in
  check_int "empty range runs nothing" 0 (List.length invs)

let test_seq () =
  let mk a = Program.map ignore (Program.step (Op.Read a)) in
  let invs, () = interpret ~respond (Program.seq [ mk 1; mk 2; mk 3 ]) in
  check_true "sequence order" (List.map Op.addr_of invs = [ 1; 2; 3 ])

let test_when_ () =
  let body = Program.map ignore (Program.step (Op.Read 0)) in
  let invs_t, () = interpret ~respond (Program.when_ true body) in
  let invs_f, () = interpret ~respond (Program.when_ false body) in
  check_int "when true runs" 1 (List.length invs_t);
  check_int "when false skips" 0 (List.length invs_f)

let test_repeat_until () =
  (* Stop after the third iteration: responses are scripted. *)
  let counter = ref 0 in
  let respond _ =
    incr counter;
    if !counter >= 3 then 1 else 0
  in
  let body = Program.map (fun v -> v = 1) (Program.step (Op.Read 0)) in
  let invs, () = interpret ~respond (Program.repeat_until body) in
  check_int "three iterations" 3 (List.length invs)

let test_await () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let counter = ref 0 in
  let respond _ =
    incr counter;
    !counter
  in
  let invs, () = interpret ~respond (Program.await x (fun v -> v >= 5)) in
  check_int "spins until predicate" 5 (List.length invs)

let test_typed_ops_round_trip () =
  let ctx = Var.Ctx.create () in
  let b = Var.Ctx.bool ctx ~name:"b" ~home:Var.Shared false in
  let w = Var.Ctx.pid_opt ctx ~name:"w" ~home:Var.Shared None in
  (* bool decode *)
  let _, v = interpret ~respond:(fun _ -> 1) (Program.read b) in
  check_true "bool decode true" v;
  let _, v = interpret ~respond:(fun _ -> 0) (Program.read b) in
  check_false "bool decode false" v;
  (* pid_opt decode *)
  let _, v = interpret ~respond:(fun _ -> -1) (Program.read w) in
  check_true "pid None" (v = None);
  let _, v = interpret ~respond:(fun _ -> 3) (Program.read w) in
  check_true "pid Some" (v = Some 3);
  (* writes encode *)
  let invs, () = interpret ~respond (Program.write w (Some 5)) in
  check_true "pid encode" (invs = [ Op.Write (Var.addr w, 5) ]);
  let invs, () = interpret ~respond (Program.write w None) in
  check_true "NIL encode" (invs = [ Op.Write (Var.addr w, -1) ])

let test_cas_bool_result () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let _, ok =
    interpret ~respond:(fun _ -> 1) (Program.cas x ~expected:0 ~update:1)
  in
  check_true "cas success decodes true" ok;
  let _, ok =
    interpret ~respond:(fun _ -> 0) (Program.cas x ~expected:0 ~update:1)
  in
  check_false "cas failure decodes false" ok

let test_length_exn () =
  let prog = Program.for_ 1 10 (fun i -> Program.map ignore (Program.step (Op.Read i))) in
  check_int "length" 10 (Program.length_exn ~respond prog);
  let spin = Program.await (var_at (Var.Ctx.create ()) 0) (fun v -> v > 0) in
  Alcotest.check_raises "unbounded program exhausts fuel"
    (Invalid_argument "Program.length_exn: out of fuel")
    (fun () -> ignore (Program.length_exn ~fuel:100 ~respond:(fun _ -> 0) spin))

let test_next_invocation () =
  check_true "return has none" (Program.next_invocation (Program.return 1) = None);
  check_true "step exposes op"
    (Program.next_invocation (Program.step (Op.Read 5)) = Some (Op.Read 5))

(* Every typed operation is a single [Step] answering exactly as the
   generic construction [map decode (step inv)] it replaced: same
   invocation, and the same decoded result for every response. *)
let test_typed_ops_are_one_step () =
  let ctx = Var.Ctx.create () in
  let w = Var.Ctx.pid_opt ctx ~name:"w" ~home:Var.Shared None in
  let b = Var.Ctx.bool ctx ~name:"b" ~home:Var.Shared false in
  let c = Var.Ctx.int ctx ~name:"c" ~home:Var.Shared 0 in
  let responses = [ -1; 0; 1; 2; 7 ] in
  let same name op reference =
    (match op with
    | Program.Step (_, k) ->
      List.iter
        (fun r ->
          match k r with
          | Program.Return _ -> ()
          | Program.Step _ -> Alcotest.failf "%s: more than one step" name)
        responses
    | Program.Return _ -> Alcotest.failf "%s: no step" name);
    check_true (name ^ ": same invocation")
      (Program.next_invocation op = Program.next_invocation reference);
    List.iter
      (fun r ->
        check_true
          (Printf.sprintf "%s: same result on response %d" name r)
          (interpret ~respond:(fun _ -> r) op
          = interpret ~respond:(fun _ -> r) reference))
      responses
  in
  let addr = Var.addr and step = Program.step in
  let enc = Var.encode w in
  same "read" (Program.read w) (Program.map (Var.decode w) (step (Op.Read (addr w))));
  same "write" (Program.write w (Some 4))
    (Program.map ignore (step (Op.Write (addr w, enc (Some 4)))));
  same "cas"
    (Program.cas w ~expected:None ~update:(Some 2))
    (Program.map (fun r -> r = 1) (step (Op.Cas (addr w, enc None, enc (Some 2)))));
  same "load_linked" (Program.load_linked w)
    (Program.map (Var.decode w) (step (Op.Ll (addr w))));
  same "store_conditional" (Program.store_conditional w (Some 1))
    (Program.map (fun r -> r = 1) (step (Op.Sc (addr w, enc (Some 1)))));
  same "fetch_and_add" (Program.fetch_and_add c 3) (step (Op.Faa (addr c, 3)));
  same "fetch_and_increment" (Program.fetch_and_increment c)
    (step (Op.Faa (addr c, 1)));
  same "fetch_and_store" (Program.fetch_and_store w None)
    (Program.map (Var.decode w) (step (Op.Fas (addr w, enc None))));
  same "test_and_set" (Program.test_and_set b)
    (Program.map (fun v -> v <> 0) (step (Op.Tas (addr b))))

let prop_map_laws =
  (* [map] is its own structural recursion, not [bind]: check the functor
     laws observably on a multi-step program under scripted responses. *)
  qcheck "map obeys identity and composition"
    QCheck.(small_list small_signed_int)
    (fun script ->
      let ctx = Var.Ctx.create () in
      let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
      let y = Var.Ctx.int ctx ~name:"y" ~home:Var.Shared 0 in
      let prog =
        let* a = Program.read x in
        let* ok = Program.cas y ~expected:a ~update:(a + 1) in
        let* () = Program.write x (if ok then 1 else 2) in
        let* b = Program.fetch_and_add y a in
        Program.return ((a * 10) + b)
      in
      let run p =
        let left = ref script in
        interpret
          ~respond:(fun _ ->
            match !left with
            | [] -> 0
            | r :: rest ->
              left := rest;
              r)
          p
      in
      let f v = v * 3 and g v = v - 5 in
      run (Program.map Fun.id prog) = run prog
      && run (Program.map (fun v -> f (g v)) prog)
         = run (Program.map f (Program.map g prog)))

let prop_bind_assoc =
  (* (m >>= f) >>= g behaves as m >>= (fun x -> f x >>= g) under any
     responder: same invocation trace and result. *)
  qcheck "bind is associative (observably)"
    QCheck.(small_list (int_bound 7))
    (fun addrs ->
      let m = Program.step (Op.Read 0) in
      let f v = Program.step (Op.Read (v mod 8)) in
      let g v =
        List.fold_left
          (fun acc a -> Program.bind acc (fun _ -> Program.step (Op.Read a)))
          (Program.return v) addrs
      in
      let lhs = Program.bind (Program.bind m f) g in
      let rhs = Program.bind m (fun x -> Program.bind (f x) g) in
      interpret ~respond lhs = interpret ~respond rhs)

let prop_of_bool_of_unit =
  (* [of_bool] and [of_unit] hand over the program's own words as a value
     program.  On random programs built by binds from flag reads (whose
     leaves are the shared [Return true] and [Return false]), CAS, TAS,
     decoded reads, writes and returns, each must answer as the [map] it
     replaces: the same invocation trace and the same result under
     scripted responses. *)
  qcheck "of_bool and of_unit behave as map"
    QCheck.(pair (small_list (int_bound 5)) (small_list small_signed_int))
    (fun (shape, script) ->
      let ctx = Var.Ctx.create () in
      let flag = Var.Ctx.bool ctx ~name:"f" ~home:Var.Shared false in
      let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
      let op = function
        | 0 -> Program.read flag
        | 1 -> Program.cas x ~expected:0 ~update:1
        | 2 -> Program.test_and_set flag
        | 3 ->
          let+ v = Program.read x in
          v > 0
        | 4 ->
          let* () = Program.write x 2 in
          Program.return false
        | _ -> Program.return true
      in
      (* Each answer picks the path on: the rest directly, or after a
         write. *)
      let rec build = function
        | [] -> Program.read flag
        | i :: rest ->
          let* b = op i in
          if b then build rest
          else
            let* () = Program.write flag true in
            build rest
      in
      let m = build shape in
      let u =
        let* b = m in
        Program.when_ b (Program.write x 3)
      in
      let run p =
        let left = ref script in
        interpret
          ~respond:(fun _ ->
            match !left with
            | [] -> 0
            | r :: rest ->
              left := rest;
              r)
          p
      in
      run (Program.of_bool m) = run (Program.map Bool.to_int m)
      && run (Program.of_unit u) = run (Program.map (fun () -> 0) u))

let suite =
  [ case "return has no steps" test_return_has_no_steps;
    case "bind sequences" test_bind_sequences;
    case "map" test_map;
    case "for_" test_for_;
    case "for_ empty range" test_for_empty;
    case "seq" test_seq;
    case "when_" test_when_;
    case "repeat_until" test_repeat_until;
    case "await spins until predicate" test_await;
    case "typed encode/decode round trip" test_typed_ops_round_trip;
    case "cas result decoding" test_cas_bool_result;
    case "typed operations are one step each" test_typed_ops_are_one_step;
    case "length_exn" test_length_exn;
    case "next_invocation" test_next_invocation;
    prop_map_laws;
    prop_bind_assoc;
    prop_of_bool_of_unit ]
