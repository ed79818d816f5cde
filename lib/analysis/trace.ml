(* Trace collection (§4.3).

   A root's merged traces are the leaves of its expansion tree, which
   one depth-first walk enumerates. The walk follows the root's CFG —
   the then branch before the else branch, each back edge taken at most
   [Config.loop_bound] times per path — and, at each call site, walks
   the callee the same way and resumes the caller after each of the
   callee's first [Config.expansion_fanout] complete traces: the
   callee-major cross-product of Figure 11, each callee trace between
   a call mark and a return mark. It stops after [Config.max_paths]
   root leaves. A callee with no path (undefined, or every path cut by
   the loop bound) keeps its bare call mark.

   The walk steps a caller-supplied persistent state once per tree
   edge, so paths that share a prefix share its steps, and no path
   exists as a list unless the state builds one ([collect] conses the
   events; the checker steps the rule fold). The walk recurses at branch
   points and call sites only; straight-line steps are tail calls.

   Functions on call cycles are unrolled [Config.recursion_bound] times
   into materialized trace tables instead (see [plan]). Everything the
   walk reads is built by [plan] and never written afterwards, so
   distinct roots may be walked from distinct domains. *)

type t = Event.t list

let m_paths =
  Obs.Metrics.counter "trace.paths_expanded"
    ~desc:"fully-expanded root paths handed to the rules"

(* Events of one instruction, in order. [Persist] lowers to flush;fence. *)
let events_of_instr dsg ~fname (i : Nvmir.Instr.t) : Event.t list =
  let ev kind = Event.make ~fname ~loc:i.loc kind in
  match i.kind with
  | Nvmir.Instr.Store { dst; _ } ->
    let a = Dsa.Dsg.resolve dsg ~fname dst in
    if Dsa.Dsg.is_persistent_addr dsg a then [ ev (Event.Write a) ] else []
  | Nvmir.Instr.Flush { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then
      [ ev (Event.Flush (a, Event.Plain)) ]
    else []
  | Nvmir.Instr.Persist { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then
      [ ev (Event.Flush (a, Event.From_persist)); ev Event.Fence ]
    else []
  | Nvmir.Instr.Tx_add { target; extent } ->
    let a = Dsa.Dsg.resolve_extent dsg ~fname target extent in
    if Dsa.Dsg.is_persistent_addr dsg a then [ ev (Event.Log a) ] else []
  | Nvmir.Instr.Fence -> [ ev Event.Fence ]
  | Nvmir.Instr.Tx_begin -> [ ev Event.Tx_begin ]
  | Nvmir.Instr.Tx_end -> [ ev Event.Tx_end ]
  | Nvmir.Instr.Epoch_begin -> [ ev Event.Epoch_begin ]
  | Nvmir.Instr.Epoch_end -> [ ev Event.Epoch_end ]
  | Nvmir.Instr.Strand_begin n -> [ ev (Event.Strand_begin n) ]
  | Nvmir.Instr.Strand_end n -> [ ev (Event.Strand_end n) ]
  | Nvmir.Instr.Call { callee; _ } -> [ ev (Event.Call_mark callee) ]
  (* CRC guards are media-integrity reads, not write-back events: the
     static rules deliberately do not see them (the recovery tier owns
     that class) *)
  | Nvmir.Instr.Load _ | Nvmir.Instr.Assign _ | Nvmir.Instr.Binop _
  | Nvmir.Instr.Alloc _ | Nvmir.Instr.Addr_of _ | Nvmir.Instr.Crc_of _
  | Nvmir.Instr.Crc_check _ | Nvmir.Instr.Comment _ -> []

(* ------------------------------------------------------------------ *)
(* The shared tables.

   Each block is resolved through the DSG once, not once per path that
   crosses it, and its abstract addresses are hash-consed through a
   program-wide pool, so the structurally-equal addresses a hot block
   contributes collapse to one allocation each. Calls are split out of
   the block's events, each with its call site's return mark. *)

type item =
  | Ev of Event.t
  | Call of { callee : string; call : Event.t; ret : Event.t }

(* [dst] is the target block's index, -1 when no block has its label *)
type edge = { dst : int; back : bool }
type exit = Exit_ret | Goto of edge | Branch of edge * edge
type node = { items : item list; exit : exit }

(* [nodes.(0)] is the entry block *)
type fn = { nodes : node array; has_path : bool }

let intern_event pool (e : Event.t) : Event.t =
  let intern a =
    match Hashtbl.find_opt pool a with
    | Some shared -> shared
    | None ->
      Hashtbl.add pool a a;
      a
  in
  match e.Event.kind with
  | Event.Write a -> { e with Event.kind = Event.Write (intern a) }
  | Event.Flush (a, o) -> { e with Event.kind = Event.Flush (intern a, o) }
  | Event.Log a -> { e with Event.kind = Event.Log (intern a) }
  | Event.Fence | Event.Tx_begin | Event.Tx_end | Event.Epoch_begin
  | Event.Epoch_end | Event.Strand_begin _ | Event.Strand_end _
  | Event.Call_mark _ | Event.Ret_mark _ -> e

let node_table dsg pool (f : Nvmir.Func.t) =
  let fname = Nvmir.Func.name f in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (b : Nvmir.Func.block) ->
      if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label i)
    f.blocks;
  let cfg = Graphs.Cfg.of_func f in
  let loops = Graphs.Loops.compute cfg in
  let node (b : Nvmir.Func.block) =
    let edge target =
      {
        dst = Option.value ~default:(-1) (Hashtbl.find_opt index target);
        back = Graphs.Loops.is_back_edge loops ~source:b.label ~target;
      }
    in
    let item (e : Event.t) =
      match e.kind with
      | Event.Call_mark callee ->
        Call
          {
            callee;
            call = e;
            ret = Event.make ~fname ~loc:e.loc (Event.Ret_mark callee);
          }
      | _ -> Ev (intern_event pool e)
    in
    {
      items =
        List.concat_map
          (fun i -> List.map item (events_of_instr dsg ~fname i))
          b.instrs;
      exit =
        (match b.term with
        | Nvmir.Func.Ret _ -> Exit_ret
        | Nvmir.Func.Br l -> Goto (edge l)
        | Nvmir.Func.Cond_br { then_lbl; else_lbl; _ } ->
          Branch (edge then_lbl, edge else_lbl));
    }
  in
  Array.of_list (List.map node f.blocks)

(* ------------------------------------------------------------------ *)
(* The walker. *)

(* How a call site expands its callee. *)
type callee = Bare | Walk of fn | Table of t list

type 'a walker = {
  step : 'a -> Event.t -> 'a;
  resolve : string -> callee;
  fanout : int;  (* callee traces per call site *)
  loop_bound : int;
  on_visit : int -> unit;
      (* each visited block, with the frames live at that point: the
         block's own and the else branches pending above it *)
}

(* [leaf st n] is called at the end of each of the walked function's
   paths, [n] counting its non-marker events, and returns false to end
   the walk; every walk function returns false once a leaf has. [inner]
   walks the callees. [edges] counts the back edges the path took. *)
let rec visit w inner fn edges pending i st n leaf =
  w.on_visit (pending + 1);
  i < 0 || items w inner fn edges pending i fn.nodes.(i).items st n leaf

and items w inner fn edges pending i its st n leaf =
  match its with
  | Ev e :: rest -> items w inner fn edges pending i rest (w.step st e) (n + 1) leaf
  | Call c :: rest -> (
    let after st n =
      items w inner fn edges pending i rest (w.step st c.ret) n leaf
    in
    match w.resolve c.callee with
    | Bare -> items w inner fn edges pending i rest (w.step st c.call) n leaf
    | Walk _ when w.fanout <= 0 -> true
    | Walk callee ->
      let taken = ref 0 and stopped = ref false in
      ignore
        (visit inner inner callee [] 0 0 (w.step st c.call) n
           (fun st n ->
             if after st n then begin
               incr taken;
               !taken < w.fanout
             end
             else begin
               stopped := true;
               false
             end));
      not !stopped
    | Table ts ->
      let st = w.step st c.call in
      let rec replay k ts =
        match ts with
        | t :: ts when k > 0 ->
          let rec go st n = function
            | [] -> after st n
            | e :: rest ->
              go (w.step st e) (if Event.is_marker e then n else n + 1) rest
          in
          go st n t && replay (k - 1) ts
        | _ -> true
      in
      replay w.fanout ts)
  | [] -> (
    let follow e =
      if not e.back then Some edges
      else
        let key = (i, e.dst) in
        let taken = Option.value ~default:0 (List.assoc_opt key edges) in
        if taken < w.loop_bound then
          Some ((key, taken + 1) :: List.remove_assoc key edges)
        else None
    in
    match fn.nodes.(i).exit with
    | Exit_ret -> leaf st n
    | Goto e -> (
      match follow e with
      | Some edges -> visit w inner fn edges pending e.dst st n leaf
      | None -> true)
    | Branch (t, e) -> (
      match (follow t, follow e) with
      | Some te, Some ee ->
        visit w inner fn te (pending + 1) t.dst st n leaf
        && visit w inner fn ee pending e.dst st n leaf
      | Some te, None -> visit w inner fn te pending t.dst st n leaf
      | None, Some ee -> visit w inner fn ee pending e.dst st n leaf
      | None, None -> true))

(* [fn]'s first [cap] paths, each passed to [leaf] with its non-marker
   event count. [resolve] expands [fn]'s own call sites, [pass1] its
   callees'. *)
let walk_fn (config : Config.t) ~cap ~pass1 ~resolve ~on_visit fn ~step init
    leaf =
  let inner =
    {
      step;
      resolve = pass1;
      fanout = min config.expansion_fanout config.max_paths;
      loop_bound = config.loop_bound;
      on_visit = ignore;
    }
  in
  let k = ref 0 in
  if cap > 0 then
    ignore
      (visit { inner with resolve; on_visit } inner fn [] 0 0 init 0
         (fun st n ->
           leaf st n;
           incr k;
           !k < cap))

(* The number of [fn]'s own CFG paths, up to [cap]: calls left bare. *)
let count_paths config fn cap =
  let count = ref 0 in
  let bare _ = Bare in
  walk_fn config ~cap ~pass1:bare ~resolve:bare ~on_visit:ignore fn
    ~step:(fun () _ -> ())
    ()
    (fun () _ -> incr count);
  !count

(* ------------------------------------------------------------------ *)
(* The plan: every table the walks read, built before any walk.

   Recursion is unrolled [recursion_bound] times. Pass 1 walks the
   functions on call cycles in call-graph postorder (callees first,
   the Figure 11 merge order) into trace tables, each reading the pass-1
   tables built so far — a cycle's back edge finds none and keeps its
   call mark. Passes 2..[recursion_bound] re-walk every cyclic function,
   in SCC order, reading the tables as they stand. Call sites in acyclic
   functions read the pass-1 tables; a cyclic function's own call sites
   read the tables its last pass saw, which [own] keeps, so a cyclic
   root walks to exactly its last-pass table. *)

type plan = {
  config : Config.t;
  fns : (string, fn) Hashtbl.t;
  cg : Graphs.Callgraph.t;
  pass1 : string -> callee;
  own : (string, string -> callee) Hashtbl.t;  (* cyclic functions *)
  roots : string list;  (* the default roots *)
}

(* Functions in recursive SCCs (singleton SCCs only count when
   self-calling). *)
let cyclic_funcs cg =
  List.concat_map
    (fun scc ->
      match scc with
      | [ f ] when not (List.mem f (Graphs.Callgraph.callees cg f)) -> []
      | fs -> fs)
    (Graphs.Callgraph.sccs cg)

let resolve_roots cg prog =
  match Graphs.Callgraph.roots cg with
  | [] -> Nvmir.Prog.func_names prog
  | rs -> rs

(* The roots a rootless [stream] enumerates, in that same order — the
   serve cache keys its per-root entries off this. *)
let default_roots prog = resolve_roots (Graphs.Callgraph.of_prog prog) prog

let plan ?(config = Config.default) dsg prog =
  let pool : (Dsa.Aaddr.t, Dsa.Aaddr.t) Hashtbl.t = Hashtbl.create 256 in
  let fns = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let fn = { nodes = node_table dsg pool f; has_path = false } in
      Hashtbl.replace fns (Nvmir.Func.name f)
        { fn with has_path = count_paths config fn 1 > 0 })
    (Nvmir.Prog.funcs prog);
  let cg = Graphs.Callgraph.of_prog prog in
  let cyclic = cyclic_funcs cg in
  let is_cyclic = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace is_cyclic f ()) cyclic;
  let acyclic name =
    match Hashtbl.find_opt fns name with
    | Some fn when fn.has_path -> Walk fn
    | Some _ | None -> Bare
  in
  let reading find name =
    if Hashtbl.mem is_cyclic name then
      match find name with Some (_ :: _ as ts) -> Table ts | Some [] | None -> Bare
    else acyclic name
  in
  let pass1_tables = Hashtbl.create 8 in
  let pass1 = reading (Hashtbl.find_opt pass1_tables) in
  let own = Hashtbl.create 8 in
  let walk tables fname =
    (* the callees' tables as they stand now *)
    let seen =
      List.filter_map
        (fun c ->
          if Hashtbl.mem is_cyclic c then Some (c, Hashtbl.find_opt tables c)
          else None)
        (Graphs.Callgraph.callees cg fname)
    in
    let resolve = reading (fun c -> Option.join (List.assoc_opt c seen)) in
    Hashtbl.replace own fname resolve;
    let acc = ref [] in
    walk_fn config ~cap:config.max_paths ~pass1 ~resolve ~on_visit:ignore
      (Hashtbl.find fns fname)
      ~step:(fun rev e -> e :: rev)
      []
      (fun rev _ -> acc := List.rev rev :: !acc);
    Hashtbl.replace tables fname (List.rev !acc)
  in
  List.iter
    (fun f -> if Hashtbl.mem is_cyclic f then walk pass1_tables f)
    (Graphs.Callgraph.postorder cg);
  let last = Hashtbl.copy pass1_tables in
  for _ = 2 to config.recursion_bound do
    List.iter (walk last) cyclic
  done;
  { config; fns; cg; pass1; own; roots = resolve_roots cg prog }

let roots p = p.roots

(* ------------------------------------------------------------------ *)
(* Walking a root. *)

type stats = {
  mutable peak_live : int;
  mutable paths : int;
  mutable events : int;
}

let fresh_stats () = { peak_live = 0; paths = 0; events = 0 }

(* [peak_live] is the high-water mark of live root-CFG frames: the
   block being walked and the else branches pending above it. A root
   that is also a callee counts its own paths instead, and a cyclic
   root its table's traces, as the tables they were read from did. *)
let walk p root ~step init ~leaf =
  let config = p.config in
  let stats = fresh_stats () in
  (match Hashtbl.find_opt p.fns root with
  | Some fn ->
    let own = Hashtbl.find_opt p.own root in
    walk_fn config ~cap:config.max_paths ~pass1:p.pass1
      ~resolve:(Option.value ~default:p.pass1 own)
      ~on_visit:(fun live ->
        if live > stats.peak_live then stats.peak_live <- live)
      fn ~step init
      (fun st n ->
        Obs.Metrics.incr m_paths;
        stats.paths <- stats.paths + 1;
        stats.events <- stats.events + n;
        leaf st);
    if own <> None then stats.peak_live <- stats.paths
    else if Graphs.Callgraph.callers p.cg root <> [] then
      stats.peak_live <- count_paths config fn config.max_paths
  | None -> ());
  stats

(* ------------------------------------------------------------------ *)
(* The list-level views. *)

type source = { root : string; s_stats : stats; traces : t Seq.t }

(* Number of non-marker events. *)
let length trace =
  List.fold_left (fun n e -> if Event.is_marker e then n else n + 1) 0 trace

let paths p root =
  let acc = ref [] in
  let stats =
    walk p root ~step:(fun rev e -> e :: rev) [] ~leaf:(fun rev ->
        acc := List.rev rev :: !acc)
  in
  (List.rev !acc, stats)

let stream ?config ?roots dsg prog : source list =
  let p = plan ?config dsg prog in
  List.map
    (fun root ->
      let s_stats = fresh_stats () in
      let traces =
        lazy
          (let ts, st = paths p root in
           s_stats.peak_live <- st.peak_live;
           s_stats.paths <- st.paths;
           s_stats.events <- st.events;
           ts)
      in
      { root; s_stats; traces = (fun () -> List.to_seq (Lazy.force traces) ()) })
    (Option.value ~default:p.roots roots)

let collect ?config ?roots dsg prog : (string * t list) list =
  let p = plan ?config dsg prog in
  List.map (fun root -> (root, fst (paths p root))) (Option.value ~default:p.roots roots)

let pp ppf (trace : t) =
  Fmt.pf ppf "@[<v 2>trace (%d events)@ %a@]" (List.length trace)
    Fmt.(list ~sep:(any "@ ") Event.pp)
    trace
