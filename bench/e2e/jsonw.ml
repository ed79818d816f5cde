(* One-line JSON output that keeps every digit of a measured float (the
   protocol printer rounds to six significant digits). Strings and the
   value type are the daemon protocol's. *)

type t = Serve.Protocol.json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let rec add buf = function
  | Float f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_string buf ", ";
        add buf j)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, j) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Serve.Protocol.to_line (String k));
        Buffer.add_string buf ": ";
        add buf j)
      fields;
    Buffer.add_char buf '}'
  | (Null | Bool _ | Int _ | String _) as j ->
    Buffer.add_string buf (Serve.Protocol.to_line j)

let to_string j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf
