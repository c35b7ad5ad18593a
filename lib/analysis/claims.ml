type spin = No_spin | Local_spin | Remote_spin

type bound = Rmr of int | Unbounded

type amortized = { steady : bound; refills : int }

type cc_amortized =
  | Amortized of amortized
  | Abortable of amortized
  | Recoverable of amortized

type call_claim = {
  spin : spin;
  dsm_rmrs : bound;
  cc_amortized : cc_amortized;
}

type t = {
  single_writer : string list;
  calls : (string * call_claim) list;
}

let call t label =
  match List.assoc_opt label t.calls with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Claims.call: no claim for %S" label)

let spin_rank = function No_spin -> 0 | Local_spin -> 1 | Remote_spin -> 2

let spin_leq a b = spin_rank a <= spin_rank b

let bound_leq a b =
  match (a, b) with
  | _, Unbounded -> true
  | Unbounded, Rmr _ -> false
  | Rmr x, Rmr y -> x <= y

let amortized_leq a b = bound_leq a.steady b.steady && a.refills <= b.refills

let amortized_of = function
  | Amortized a | Abortable a | Recoverable a -> a

let spin_name = function
  | No_spin -> "none"
  | Local_spin -> "local"
  | Remote_spin -> "remote"

let bound_name = function
  | Rmr k -> string_of_int k
  | Unbounded -> "unbounded"

(* "steady+refills" — e.g. "1+0r": one RMR per steady-state call, no
   invalidation surcharge; "0+1r": free in steady state, one refill per
   interfering external call. *)
let amortized_name a = Printf.sprintf "%s+%dr" (bound_name a.steady) a.refills

let cc_amortized_name = function
  | Amortized a -> amortized_name a
  | Abortable a -> "abortable " ^ amortized_name a
  | Recoverable a -> "recoverable " ^ amortized_name a

let pp_spin ppf s = Fmt.string ppf (spin_name s)

let pp_bound ppf b = Fmt.string ppf (bound_name b)

let pp_amortized ppf a = Fmt.string ppf (amortized_name a)

let pp_cc_amortized ppf c = Fmt.string ppf (cc_amortized_name c)
