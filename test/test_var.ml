(* Tests for variable allocation and layouts. *)

open Smr
open Test_util

let test_distinct_addresses () =
  let ctx = Var.Ctx.create () in
  let a = Var.Ctx.int ctx ~name:"a" ~home:Var.Shared 0 in
  let b = Var.Ctx.bool ctx ~name:"b" ~home:Var.Shared false in
  let arr = Var.Ctx.int_array ctx ~name:"c" ~home:(fun i -> Var.Module i) 3 (fun i -> i) in
  let addrs = Var.addr a :: Var.addr b :: Array.to_list (Array.map Var.addr arr) in
  check_int "all distinct" (List.length addrs)
    (List.length (List.sort_uniq compare addrs))

let test_layout_contents () =
  let ctx = Var.Ctx.create () in
  let a = Var.Ctx.int ctx ~name:"counter" ~home:(Var.Module 2) 7 in
  let layout = Var.Ctx.freeze ctx in
  check_true "home recorded" (Var.layout_home layout (Var.addr a) = Var.Module 2);
  check_int "init recorded" 7 (Var.layout_init layout (Var.addr a));
  check_true "name recorded" (Var.layout_name layout (Var.addr a) = "counter");
  check_int "size" 1 (Var.layout_size layout);
  check_true "addrs listed" (Var.layout_addrs layout = [ Var.addr a ])

let test_layout_defaults_for_unknown_addr () =
  let layout = Var.Ctx.freeze (Var.Ctx.create ()) in
  check_true "unknown home is shared" (Var.layout_home layout 99 = Var.Shared);
  check_int "unknown init is zero" 0 (Var.layout_init layout 99)

let test_freeze_isolation () =
  (* Allocations after freezing do not appear in the earlier layout. *)
  let ctx = Var.Ctx.create () in
  let _a = Var.Ctx.int ctx ~name:"a" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let b = Var.Ctx.int ctx ~name:"b" ~home:(Var.Module 1) 9 in
  check_int "frozen size unchanged" 1 (Var.layout_size layout);
  check_true "late var invisible (defaults)"
    (Var.layout_home layout (Var.addr b) = Var.Shared);
  let layout2 = Var.Ctx.freeze ctx in
  check_int "refreezing sees both" 2 (Var.layout_size layout2)

let test_array_initializers () =
  let ctx = Var.Ctx.create () in
  let arr =
    Var.Ctx.bool_array ctx ~name:"flags" ~home:(fun i -> Var.Module i) 4 (fun i -> i = 0)
  in
  let layout = Var.Ctx.freeze ctx in
  check_int "first true" 1 (Var.layout_init layout (Var.addr arr.(0)));
  check_int "others false" 0 (Var.layout_init layout (Var.addr arr.(3)));
  check_true "per-index homes" (Var.home arr.(2) = Var.Module 2);
  check_true "indexed names" (Var.name arr.(2) = "flags[2]")

let test_handle_names_and_homes_match_layout () =
  (* Handles render their name and home on demand from the range they were
     minted from; both must agree with the frozen layout's view of the same
     address, for scalars and for the first, a middle and the last element
     of a vec. *)
  let ctx = Var.Ctx.create () in
  let s = Var.Ctx.int ctx ~name:"counter" ~home:(Var.Module 3) 0 in
  let t = Var.Ctx.bool ctx ~name:"lock" ~home:Var.Shared false in
  let v =
    Var.Ctx.bool_vec ctx ~name:"V"
      ~home:(fun i -> if i = 2 then Var.Shared else Var.Module i)
      5 (fun _ -> false)
  in
  let layout = Var.Ctx.freeze ctx in
  let agrees what h =
    check_true (what ^ ": name")
      (Var.name h = Var.layout_name layout (Var.addr h));
    check_true (what ^ ": home")
      (Var.home h = Var.layout_home layout (Var.addr h))
  in
  agrees "int scalar" s;
  agrees "bool scalar" t;
  List.iter
    (fun i -> agrees (Printf.sprintf "V[%d]" i) (Var.vec_get v i))
    [ 0; 2; 4 ];
  check_true "scalar names carry no index" (Var.name s = "counter");
  check_true "vec names carry the index" (Var.name (Var.vec_get v 4) = "V[4]");
  check_true "vec homes are per index"
    (Var.home (Var.vec_get v 2) = Var.Shared
    && Var.home (Var.vec_get v 4) = Var.Module 4)

let test_pid_opt_encoding () =
  let ctx = Var.Ctx.create () in
  let w = Var.Ctx.pid_opt ctx ~name:"w" ~home:Var.Shared None in
  check_int "NIL encodes negative" (-1) (Var.encode w None);
  check_int "pid encodes as itself" 5 (Var.encode w (Some 5));
  check_true "decode round trip" (Var.decode w (Var.encode w (Some 3)) = Some 3);
  check_true "decode NIL" (Var.decode w (-1) = None)

let test_custom_encoding () =
  let ctx = Var.Ctx.create () in
  let v =
    Var.Ctx.alloc ctx ~name:"tri" ~home:Var.Shared
      ~encode:(function `A -> 0 | `B -> 1 | `C -> 2)
      ~decode:(function 0 -> `A | 1 -> `B | _ -> `C)
      `B
  in
  let layout = Var.Ctx.freeze ctx in
  check_int "typed init encoded" 1 (Var.layout_init layout (Var.addr v));
  check_true "round trip" (Var.decode v (Var.encode v `C) = `C)

let suite =
  [ case "distinct addresses" test_distinct_addresses;
    case "layout contents" test_layout_contents;
    case "layout defaults" test_layout_defaults_for_unknown_addr;
    case "freeze isolation" test_freeze_isolation;
    case "array initializers" test_array_initializers;
    case "handle names and homes match the layout"
      test_handle_names_and_homes_match_layout;
    case "pid option encoding" test_pid_opt_encoding;
    case "custom encoding" test_custom_encoding ]
