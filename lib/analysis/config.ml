(* The one analysis-options record: the DSA configuration of §4.2 plus
   the path-exploration bounds of §4.3. Path exploration is limited to
   a small number of loop iterations (10 by default) and recursion depth
   (5 by default); [max_paths] caps path enumeration per function so
   branchy code cannot explode trace collection. *)

type t = {
  loop_bound : int; (* times a back edge may be taken per path *)
  recursion_bound : int; (* times a function may appear on the call chain *)
  max_paths : int; (* paths enumerated per function *)
  expansion_fanout : int; (* callee traces spliced per call site *)
  field_sensitive : bool; (* DSA distinguishes struct fields *)
  offset_sensitive : bool; (* DSA tracks pointer-arithmetic offsets *)
  persistent_roots : (string * string) list;
      (* (function, variable) interface annotations known to reference NVM *)
}

(* loop_bound and recursion_bound follow §4.3; the path and fan-out caps
   bound the interprocedural cross-product of merged traces, which the
   paper leaves implicit. *)
let default =
  {
    loop_bound = 10;
    recursion_bound = 5;
    max_paths = 64;
    expansion_fanout = 3;
    field_sensitive = true;
    offset_sensitive = true;
    persistent_roots = [];
  }

let build_dsg t prog =
  Dsa.Dsg.build ~field_sensitive:t.field_sensitive
    ~offset_sensitive:t.offset_sensitive ~persistent_roots:t.persistent_roots
    prog

(* The pattern names every field and has no [; _]: with warning 9 an
   error, a new field does not compile until it is part of the
   signature, and so of every cache key built from it. *)
let signature
    {
      loop_bound;
      recursion_bound;
      max_paths;
      expansion_fanout;
      field_sensitive;
      offset_sensitive;
      persistent_roots;
    } =
  let roots =
    match persistent_roots with
    | [] -> ""
    | rs ->
      String.concat ";"
        (List.map (fun (f, v) -> f ^ "." ^ v) (List.sort compare rs))
  in
  String.concat ","
    [
      string_of_int loop_bound;
      string_of_int recursion_bound;
      string_of_int max_paths;
      string_of_int expansion_fanout;
      string_of_bool field_sensitive;
      string_of_bool offset_sensitive;
      roots;
    ]

let pp ppf t =
  Fmt.pf ppf
    "loop_bound=%d recursion_bound=%d max_paths=%d expansion_fanout=%d \
     field_sensitive=%b offset_sensitive=%b persistent_roots=%d"
    t.loop_bound t.recursion_bound t.max_paths t.expansion_fanout
    t.field_sensitive t.offset_sensitive
    (List.length t.persistent_roots)
