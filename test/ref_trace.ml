(* A naive reference for trace collection (§4.3), the oracle the
   walker ([Analysis.Trace]) is checked against: the same bounds applied
   at the same points, written the plainest way — lists, direct
   recursion over the call graph, every instruction resolved through the
   DSG on every path. No per-block cache, no hash-consing, no walker. *)

let take n l = List.filteri (fun i _ -> i < n) l
(* Phase 1: the first [max_paths] paths through [f]'s CFG, depth first
   with the then branch before the else branch, each back edge taken at
   most [loop_bound] times per path. [walk k] returns at most [k]
   paths, so enumeration stops once the cap is reached. *)
let intra (config : Analysis.Config.t) dsg (f : Nvmir.Func.t) =
  let cfg = Graphs.Cfg.of_func f in
  let loops = Graphs.Loops.compute cfg in
  let fname = Nvmir.Func.name f in
  let events (b : Nvmir.Func.block) =
    List.concat_map (Analysis.Trace.events_of_instr dsg ~fname) b.instrs
  in
  let rec walk k label rev_acc edges =
    match Graphs.Cfg.block cfg label with
    | None -> []
    | Some _ when k <= 0 -> []
    | Some b -> (
      let rev_acc = List.rev_append (events b) rev_acc in
      let follow k target =
        if Graphs.Loops.is_back_edge loops ~source:label ~target then
          let key = (label, target) in
          let n = Option.value ~default:0 (List.assoc_opt key edges) in
          if n < config.loop_bound then
            walk k target rev_acc ((key, n + 1) :: edges)
          else []
        else walk k target rev_acc edges
      in
      match b.term with
      | Nvmir.Func.Ret _ -> [ List.rev rev_acc ]
      | Nvmir.Func.Br l -> follow k l
      | Nvmir.Func.Cond_br { then_lbl; else_lbl; _ } ->
        let first = follow k then_lbl in
        first @ follow (k - List.length first) else_lbl)
  in
  walk config.max_paths (Graphs.Cfg.entry cfg) [] []

(* Phase 2: [fname]'s merged traces. In each path, a call is replaced by
   the cross-product of the callee's first [expansion_fanout] traces with
   the expansions of the rest of the path, callee-major, the callee
   trace spliced between the call mark and a return mark; a callee
   without traces (undefined, pathless, or a recursive function whose
   entry [cur] lacks) leaves the bare call mark. [max_paths] caps every
   combination point. An acyclic callee is expanded afresh at each of
   its call sites; a callee on a call cycle is read from [cur] at
   [fname]'s own call sites, and from [pass1] at the call sites of the
   acyclic callees it reaches. *)
let rec expand (config : Analysis.Config.t) dsg prog ~cyclic ~pass1 ~cur fname
    =
  match Nvmir.Prog.find_func prog fname with
  | None -> []
  | Some f ->
    let cap = config.max_paths in
    let callee_traces c =
      if List.mem c cyclic then Option.value ~default:[] (Hashtbl.find_opt cur c)
      else expand config dsg prog ~cyclic ~pass1 ~cur:pass1 c
    in
    let callees =
      List.map
        (fun c -> (c, callee_traces c))
        (List.sort_uniq compare (Nvmir.Func.callees f))
    in
    let rec splice = function
      | [] -> [ [] ]
      | ({ Analysis.Event.kind = Analysis.Event.Call_mark callee; fname; loc }
         as ev)
        :: rest -> (
        let rests = take cap (splice rest) in
        match List.assoc callee callees with
        | [] -> List.map (fun r -> ev :: r) rests
        | cts ->
          let ret =
            Analysis.Event.make ~fname ~loc (Analysis.Event.Ret_mark callee)
          in
          take cap
            (List.concat_map
               (fun ct -> List.map (fun r -> (ev :: ct) @ (ret :: r)) rests)
               (take config.expansion_fanout cts)))
      | ev :: rest -> List.map (fun r -> ev :: r) (splice rest)
    in
    take cap (List.concat_map splice (intra config dsg f))

(* Recursion is unrolled [recursion_bound] times. Pass 1 expands the
   functions on call cycles in call-graph postorder (callees first),
   each reading the pass-1 traces built so far, so a cycle's back edge
   finds none and keeps its call mark. Passes 2..[recursion_bound]
   re-expand every cyclic function, in SCC order, from the table as it
   stands. A cyclic root reads the last pass; everything else reads
   pass 1. *)
let collect ?(config = Analysis.Config.default) dsg prog roots =
  let cg = Graphs.Callgraph.of_prog prog in
  let cyclic =
    List.concat_map
      (function
        | [ f ] when not (List.mem f (Graphs.Callgraph.callees cg f)) -> []
        | fs -> fs)
      (Graphs.Callgraph.sccs cg)
  in
  let expand = expand config dsg prog ~cyclic in
  let pass1 = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if List.mem f cyclic then
        Hashtbl.replace pass1 f (expand ~pass1 ~cur:pass1 f))
    (Graphs.Callgraph.postorder cg);
  let last = Hashtbl.copy pass1 in
  for _ = 2 to config.recursion_bound do
    List.iter
      (fun f -> Hashtbl.replace last f (expand ~pass1 ~cur:last f))
      cyclic
  done;
  List.map
    (fun r ->
      ( r,
        if List.mem r cyclic then Option.value ~default:[] (Hashtbl.find_opt last r)
        else expand ~pass1 ~cur:pass1 r ))
    roots
