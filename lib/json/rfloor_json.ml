type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' -> fail (Printf.sprintf "expected '%c', got '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "dangling escape";
        let e = text.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          (* non-ASCII folded to '?' *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec pairs () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          if List.mem_assoc k !fields then
            fail (Printf.sprintf "duplicate key %S" k);
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            pairs ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        pairs ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elems () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elems ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elems ();
        Arr (List.rev !items)
      end
    | Some ('t' | 'f' | 'n') ->
      let kw k v =
        let l = String.length k in
        if !pos + l <= n && String.sub text !pos l = k then begin
          pos := !pos + l;
          v
        end
        else fail "bad literal"
      in
      if text.[!pos] = 't' then kw "true" (Bool true)
      else if text.[!pos] = 'f' then kw "false" (Bool false)
      else kw "null" Null
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match text.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "expected a value";
      let s = String.sub text start (!pos - start) in
      (match float_of_string_opt s with
      | Some f when Float.is_finite f -> Num f
      | Some _ -> fail (Printf.sprintf "non-finite number %S" s)
      | None -> fail (Printf.sprintf "bad number %S" s))
    | None -> fail "expected a value, got end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters after document";
    Ok v
  with Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && abs_float f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let get_string k v =
  match member k v with
  | Some (Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let get_num k v =
  match member k v with
  | Some (Num f) -> Ok f
  | Some _ -> Error (Printf.sprintf "field %S must be a number" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

(* [int_of_float] is unspecified outside the int range: on x86-64, 1e19
   reads as 0 and 2^62 as [min_int]. *)
let int_of_num f =
  if Float.is_integer f && f >= Float.of_int min_int
     && f < -.Float.of_int min_int
  then Some (int_of_float f)
  else None

let get_int k v =
  match get_num k v with
  | Error _ as e -> e
  | Ok f -> (
    match int_of_num f with
    | Some n -> Ok n
    | None ->
      Error (Printf.sprintf "field %S must be an integer in the int range" k))

let get_arr k v =
  match member k v with
  | Some (Arr items) -> Ok items
  | Some _ -> Error (Printf.sprintf "field %S must be an array" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let get_num_opt k v =
  match member k v with
  | Some (Num f) -> Ok (Some f)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a number or null" k)
