(* The little JSON the suite reads and writes: child-process reports,
   result sets for [compare], and BENCHMARK.json.  Numbers are floats;
   integral values print without a fraction, others with every digit
   ("%.17g"), so a printed measurement is never rounded. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then "null"
  else
    (* the shortest of 15, 16 or 17 significant digits that reads back
       exactly *)
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s -> Buffer.add_string b (Obs.Json_lite.str s)
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Obs.Json_lite.str k);
        Buffer.add_char b ':';
        to_buffer b v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < len && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < len && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= len then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > len then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= len then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < len && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < len && s.[!pos] = ',' then begin
            incr pos;
            fields ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if !pos < len && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < len && s.[!pos] = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < len && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> len then fail "trailing data";
  v

let read_file path =
  In_channel.with_open_bin path (fun ic -> of_string (In_channel.input_all ic))

let member key = function
  | Obj l -> ( match List.assoc_opt key l with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function
  | Num f -> f
  | _ -> raise (Error "expected a number")

let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_bool = function Bool b -> b | _ -> raise (Error "expected a boolean")

let to_assoc = function
  | Obj l -> l
  | _ -> raise (Error "expected an object")
