(* Minimal JSON for the serve protocol.  No JSON library is baked into
   the image, so the daemon, the client and the bench load generator all
   share this one implementation: values print on a single line (JSONL
   framing needs no escaping beyond the string rules) and the parser
   accepts exactly what the printer emits plus ordinary whitespace. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let format_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (format_num f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Obs.json_escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (Obs.json_escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* -- parser ------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "at %d: expected %C, got %C" c.pos ch x
  | None -> parse_error "at %d: expected %C, got end of input" c.pos ch

let expect_word c w =
  let n = String.length w in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = w then
    c.pos <- c.pos + n
  else parse_error "at %d: expected %s" c.pos w

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.text then
              parse_error "truncated \\u escape";
            let hex = String.sub c.text c.pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some u ->
                c.pos <- c.pos + 4;
                utf8_of_code buf u
            | None -> parse_error "bad \\u escape %S" hex);
            go ()
        | _ -> parse_error "at %d: bad escape" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> parse_error "bad number %S" s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((k, v) :: acc)
          | _ -> parse_error "at %d: expected ',' or '}'" c.pos
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> parse_error "at %d: expected ',' or ']'" c.pos
        in
        List (items [])
      end
  | Some 't' -> expect_word c "true"; Bool true
  | Some 'f' -> expect_word c "false"; Bool false
  | Some 'n' -> expect_word c "null"; Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> parse_error "at %d: unexpected %C" c.pos ch

let of_string s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at %d" c.pos)
      else Ok v
  | exception Parse_error m -> Error m

(* -- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_int = function Num f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let str_member key v = Option.bind (member key v) to_str
let num_member key v = Option.bind (member key v) to_num
let int_member key v = Option.bind (member key v) to_int
let bool_member key v = Option.bind (member key v) to_bool
let list_member key v = Option.bind (member key v) to_list
