(* The false-positive suppression database §5.4 proposes as future work:
   "we could maintain a database of user-specified rules to filter out
   some warnings. The database can be updated with the learned
   experiences of previously validated false positives."

   Entries match warnings by rule (optional), file, and line (optional);
   each carries the reviewer's reason. The on-disk format is one entry
   per line:

     # comment
     unflushed-write  btree_map.c:215   symbolic index provably equal
     *                nvm_heap.c        legacy shim file, reviewed 2022-03

   '*' matches any rule; a file without ':line' matches the whole file. *)

type entry = {
  rule : Analysis.Warning.rule_id option; (* None = any rule *)
  file : string;
  line : int option; (* None = whole file *)
  reason : string;
}

type t = { mutable entries : entry list }

let create () = { entries = [] }
let entries t = t.entries
let add t e = t.entries <- t.entries @ [ e ]

let entry ?rule ?line ~file reason = { rule; file; line; reason }

let matches (e : entry) (w : Analysis.Warning.t) =
  (match e.rule with None -> true | Some r -> r = w.Analysis.Warning.rule)
  && String.equal e.file w.Analysis.Warning.loc.Nvmir.Loc.file
  && match e.line with
     | None -> true
     | Some l -> l = w.Analysis.Warning.loc.Nvmir.Loc.line

(* Split warnings into (kept, suppressed-with-entry). *)
let filter t (warnings : Analysis.Warning.t list) =
  List.partition_map
    (fun w ->
      match List.find_opt (fun e -> matches e w) t.entries with
      | None -> Either.Left w
      | Some e -> Either.Right (w, e))
    warnings

(* Record a validated false positive: the §5.4 learning loop. *)
let learn t (w : Analysis.Warning.t) ~reason =
  add t
    {
      rule = Some w.Analysis.Warning.rule;
      file = w.Analysis.Warning.loc.Nvmir.Loc.file;
      line = Some w.Analysis.Warning.loc.Nvmir.Loc.line;
      reason;
    }

(* ------------------------------------------------------------------ *)
(* On-disk format *)

let entry_to_line (e : entry) =
  Fmt.str "%-28s %-28s %s"
    (match e.rule with None -> "*" | Some r -> Analysis.Warning.rule_name r)
    (match e.line with
    | None -> e.file
    | Some l -> Fmt.str "%s:%d" e.file l)
    e.reason

let to_string t =
  String.concat "\n"
    ("# DeepMC suppression database: rule  file[:line]  reason"
    :: List.map entry_to_line t.entries)
  ^ "\n"

exception Parse_error of string * int

let rule_of_name name =
  List.find_opt
    (fun r -> String.equal (Analysis.Warning.rule_name r) name)
    Analysis.Warning.all_rules

let parse_line lineno line : entry option =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | rule_s :: loc_s :: reason_words ->
      let rule =
        if String.equal rule_s "*" then None
        else
          match rule_of_name rule_s with
          | Some r -> Some r
          | None ->
            raise (Parse_error (Fmt.str "unknown rule %S" rule_s, lineno))
      in
      let file, line_no =
        match String.rindex_opt loc_s ':' with
        | Some i -> (
          let f = String.sub loc_s 0 i in
          let num = String.sub loc_s (i + 1) (String.length loc_s - i - 1) in
          match int_of_string_opt num with
          | Some n -> (f, Some n)
          | None -> (loc_s, None))
        | None -> (loc_s, None)
      in
      Some { rule; file; line = line_no; reason = String.concat " " reason_words }
    | _ ->
      raise (Parse_error ("expected: rule file[:line] reason", lineno))

let of_string s : t =
  let t = create () in
  List.iteri
    (fun i line ->
      match parse_line (i + 1) line with
      | Some e -> add t e
      | None -> ())
    (String.split_on_char '\n' s);
  t

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s
