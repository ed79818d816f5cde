(* Graphviz (dot) export for control-flow graphs and call graphs, for
   visual inspection of the analysis inputs: `deepmc dsg --dot`,
   `deepmc cfg --dot | dot -Tsvg`. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\l"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One CFG as a dot digraph; block bodies become record-ish labels. *)
let of_cfg (cfg : Cfg.t) : string =
  let buf = Buffer.create 1024 in
  let fname = (Cfg.func cfg).Nvmir.Func.fname in
  Buffer.add_string buf (Fmt.str "digraph \"%s\" {\n" (escape fname));
  Buffer.add_string buf "  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun (b : Nvmir.Func.block) ->
      let body =
        String.concat "\\l"
          (List.map
             (fun i -> escape (Fmt.str "%a" Nvmir.Instr.pp i))
             b.Nvmir.Func.instrs
          @ [ escape (Fmt.str "%a" Nvmir.Func.pp_terminator b.Nvmir.Func.term) ])
        ^ "\\l"
      in
      Buffer.add_string buf
        (Fmt.str "  \"%s\" [label=\"%s:\\l%s\"];\n" (escape b.Nvmir.Func.label)
           (escape b.Nvmir.Func.label) body);
      List.iter
        (fun succ ->
          Buffer.add_string buf
            (Fmt.str "  \"%s\" -> \"%s\";\n" (escape b.Nvmir.Func.label)
               (escape succ)))
        (Nvmir.Func.successors b))
    (Cfg.func cfg).Nvmir.Func.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The whole program's call graph. *)
let of_callgraph (cg : Callgraph.t) (prog : Nvmir.Prog.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph callgraph {\n";
  Buffer.add_string buf "  node [shape=oval, fontname=\"monospace\"];\n";
  List.iter
    (fun name ->
      let shape =
        if List.mem name (Callgraph.roots cg) then
          " [shape=doubleoctagon]"
        else ""
      in
      Buffer.add_string buf (Fmt.str "  \"%s\"%s;\n" (escape name) shape);
      List.iter
        (fun callee ->
          Buffer.add_string buf
            (Fmt.str "  \"%s\" -> \"%s\";\n" (escape name) (escape callee)))
        (Callgraph.callees cg name))
    (Nvmir.Prog.func_names prog);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
