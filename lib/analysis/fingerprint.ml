(* Content fingerprints for incremental re-analysis.

   A function's per-root analysis output (its traces, and therefore
   its warnings) is a pure function of:

   - its own printed body (instructions, operands, source locations —
     [Func.content_hash]), and
   - the slice of the global DSG its variables can reach
     ([Dsg.summary_hash]: canonical node ids, persistence, types,
     mod/ref sets, edges).

   Combining the two gives a per-function fingerprint; digesting the
   fingerprints of a root's call-graph closure (sorted, so digest
   order is edit-independent) gives the root's closure key. Equal
   closure key => every input the checker reads while
   enumerating that root is identical => the cached per-root result
   (warning text included — raw node ids were digested) may be
   replayed verbatim.

   The DSG is global, so an edit anywhere can in principle perturb
   resolution in an untouched function (Steensgaard unification is
   whole-program). That is exactly why the fingerprint folds in the
   *current build's* DSG summary rather than trusting the body hash
   alone: the table is rebuilt against each new program build
   (parse + DSG are linear), and any resolution drift surfaces as a
   fingerprint change. *)

type table = {
  fps : (string, Nvmir.Chash.t) Hashtbl.t; (* fname -> input fingerprint *)
  keys : (string, Nvmir.Chash.t) Hashtbl.t; (* root -> closure key *)
  roots : string list; (* cold-run enumeration order *)
}

let root_key table root = Hashtbl.find_opt table.keys root
let roots table = table.roots

(* Reachable defined functions from [root], root included. Undefined
   callees have no body to fingerprint; their names still perturb the
   caller's content hash, so a call-target rename is never invisible. *)
let closure cg root =
  let seen = Hashtbl.create 16 in
  let rec visit f =
    if not (Hashtbl.mem seen f) && Graphs.Callgraph.is_defined cg f then begin
      Hashtbl.replace seen f ();
      List.iter visit (Graphs.Callgraph.callees cg f)
    end
  in
  visit root;
  Hashtbl.fold (fun f () acc -> f :: acc) seen [] |> List.sort String.compare

let build dsg prog : table =
  let fps = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let fname = Nvmir.Func.name f in
      Hashtbl.replace fps fname
        (Nvmir.Chash.combine
           (Nvmir.Func.content_hash f)
           (Dsa.Dsg.summary_hash dsg ~fname)))
    (Nvmir.Prog.funcs prog);
  let cg = Graphs.Callgraph.of_prog prog in
  let roots = Trace.default_roots prog in
  let keys = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key =
        List.fold_left
          (fun h f ->
            match Hashtbl.find_opt fps f with
            | Some fp -> Nvmir.Chash.combine (Nvmir.Chash.add_string h f) fp
            | None -> Nvmir.Chash.add_string h f)
          Nvmir.Chash.empty (closure cg r)
      in
      Hashtbl.replace keys r key)
    roots;
  { fps; keys; roots }

(* Functions whose fingerprint differs from (or is absent in) the
   previous build — the invalidation front an edit pushes. *)
let changed_functions ~old table =
  Hashtbl.fold
    (fun fname fp acc ->
      match Hashtbl.find_opt old.fps fname with
      | Some fp' when Nvmir.Chash.equal fp fp' -> acc
      | _ -> fname :: acc)
    table.fps []
  |> List.sort String.compare
