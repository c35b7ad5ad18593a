(* The closed trace-event schema; see the .mli.

   Every field is a primitive (int/string/bool) so that this module sits
   below the simulator: [Smr] and [Core] depend on [Obs], never the other
   way round.  Emitters translate their own vocabulary (Op.kind, Var.home,
   cost-model names) into the strings recorded here. *)

type home = Module of int | Shared

let home_label = function
  | Module p -> Printf.sprintf "p%d" p
  | Shared -> "shared"

type t =
  | Op_step of {
      t : int;
      pid : int;
      kind : string;
      addr : int;
      var : string;
      home : home;
      response : int;
      wrote : bool;
      rmr : bool;
      messages : int;
      model : string;
      call_seq : int;
    }
  | Call_begin of { t : int; pid : int; label : string; seq : int }
  | Call_end of {
      t : int;
      pid : int;
      label : string;
      seq : int;
      result : int;
      rmrs : int;
      steps : int;
    }
  | Call_crash of {
      t : int;
      pid : int;
      label : string;
      seq : int;
      rmrs : int;
      steps : int;
    }
  | Proc_exit of { t : int; pid : int; crashed : bool }
  | Cache of {
      t : int;
      pid : int;
      addr : int;
      action : string;
      copies : int;
      messages : int;
      protocol : string;
      interconnect : string;
    }
  | Adversary of { t : int; decision : string; pid : int; detail : string }
