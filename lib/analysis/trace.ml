(* Trace collection (§4.3).

   Phase 1 (intra-procedural): depth-first path enumeration over each
   function's CFG, bounded by [Config.loop_bound] back-edge traversals
   and [Config.max_paths] paths. Each path yields one trace whose events
   are resolved through the DSG; writes and flushes that the DSG proves
   volatile are dropped, so traces contain only persistent operations.

   Phase 2 (inter-procedural): the call graph is traversed so that
   callee traces are spliced into caller traces at call sites
   (Figure 11), bounded by [Config.recursion_bound] on the call chain
   and [Config.expansion_fanout] callee traces per site. Call/return
   provenance markers are kept in the merged trace.

   Both phases are demand-driven: [stream] enumerates a root's paths
   lazily — the DFS is a [Seq] whose suspended branch frames share their
   event-prefix storage, and call-site expansion is a lazy cross-product
   over memoized callee suffixes — so peak memory is O(live paths), and
   the checker consumes (and discards) each path as it completes.
   [collect] forces the same sequences into lists. *)

type t = Event.t list

(* Registry instruments. "Paths expanded" are fully-merged root paths
   (what the rules consume); memo hits/misses count call-site lookups
   against the interprocedural memo. *)
let m_paths =
  Obs.Metrics.counter "trace.paths_expanded"
    ~desc:"fully-expanded root paths handed to the rules"

let m_memo_hits =
  Obs.Metrics.counter "trace.memo_hits"
    ~desc:"call-site expansions served from the interprocedural memo"

let m_memo_misses =
  Obs.Metrics.counter "trace.memo_misses"
    ~desc:"call-site lookups that had to build (or lacked) a memo entry"

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
(* Per-block event precomputation.

   Resolving every instruction through the DSG once per path that
   crosses its block would cost P×B resolutions of identical results for
   a function with P paths over B shared blocks (resolution is
   idempotent after the DSG build: every operand was already resolved
   during the local phase). Each block is resolved once up front and
   the walk replays the cached events.

   Abstract addresses are hash-consed through [pool] while caching, so
   the thousands of structurally-equal addresses a hot block contributes
   across paths collapse to one allocation each. *)

type block_events = (string, (string, Event.t list) Hashtbl.t) Hashtbl.t

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

let precompute_block_events dsg prog : block_events =
  let tables = Hashtbl.create 64 in
  let pool : (Dsa.Aaddr.t, Dsa.Aaddr.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let fname = Nvmir.Func.name f in
      let per_block = Hashtbl.create 16 in
      List.iter
        (fun (b : Nvmir.Func.block) ->
          let evs =
            List.concat_map
              (fun i ->
                List.map (intern_event pool) (events_of_instr dsg ~fname i))
              b.instrs
          in
          Hashtbl.replace per_block b.label evs)
        f.Nvmir.Func.blocks;
      Hashtbl.replace tables fname per_block)
    (Nvmir.Prog.funcs prog);
  tables

(* ------------------------------------------------------------------ *)
(* Phase 1: enumerate bounded paths through a function's CFG, on demand.

   The DFS runs over an explicit frame stack; pushing the else frame
   below the then frame gives the recursive order (the whole then
   subtree completes before the else branch starts). Suspended frames
   keep their event accumulator as a shared-tail list, so N live
   branches off one prefix store the prefix once. [stats] observes the
   high-water mark of live frames — the O(live paths) a root holds
   instead of O(all paths). The [max_paths] cap is applied by the
   consumer, after call-site expansion (every path expands to at least
   one trace, so capping there equals capping here). *)

type stats = {
  mutable peak_live : int;  (* max simultaneously-live path frames *)
  mutable paths : int;
  mutable events : int;  (* non-marker events across yielded paths *)
}

let fresh_stats () = { peak_live = 0; paths = 0; events = 0 }

(* A frame: CFG label to continue from, reversed events so far, and the
   back-edge counts this path has used (immutable here — frames outlive
   the walk that created them, so undo-style sharing cannot work). *)
type frame = {
  fr_label : string;
  fr_acc : Event.t list;
  fr_edges : ((string * string) * int) list;
}

let stream_function (events : block_events) (config : Config.t) ~stats
    (func : Nvmir.Func.t) : t Seq.t =
  let cfg = Graphs.Cfg.of_func func in
  let loops = Graphs.Loops.compute cfg in
  let per_block = Hashtbl.find_opt events (Nvmir.Func.name func) in
  let block_evs (block : Nvmir.Func.block) =
    Option.value ~default:[]
      (Option.bind per_block (fun t -> Hashtbl.find_opt t block.label))
  in
  let note_live depth = if depth > stats.peak_live then stats.peak_live <- depth in
  (* [depth] tracks the stack length so the high-water mark costs O(1)
     per push instead of a length scan *)
  let rec next stack depth () =
    match stack with
    | [] -> Seq.Nil
    | fr :: stack -> (
      (* live paths right now: the in-flight frame plus the suspended ones *)
      note_live depth;
      let depth = depth - 1 in
      match Graphs.Cfg.block cfg fr.fr_label with
      | None -> next stack depth ()
      | Some block ->
        let acc = List.rev_append (block_evs block) fr.fr_acc in
        let follow target (stack, depth) =
          if Graphs.Loops.is_back_edge loops ~source:fr.fr_label ~target then begin
            let key = (fr.fr_label, target) in
            let taken =
              Option.value ~default:0 (List.assoc_opt key fr.fr_edges)
            in
            if taken < config.loop_bound then
              ( {
                  fr_label = target;
                  fr_acc = acc;
                  fr_edges =
                    (key, taken + 1) :: List.remove_assoc key fr.fr_edges;
                }
                :: stack,
                depth + 1 )
            else (stack, depth)
          end
          else
            ( { fr_label = target; fr_acc = acc; fr_edges = fr.fr_edges }
              :: stack,
              depth + 1 )
        in
        (match block.term with
        | Nvmir.Func.Ret _ -> Seq.Cons (List.rev acc, next stack depth)
        | Nvmir.Func.Br l ->
          let stack, depth = follow l (stack, depth) in
          next stack depth ()
        | Nvmir.Func.Cond_br { then_lbl; else_lbl; _ } ->
          (* else below then: then's subtree drains first *)
          let stack, depth =
            follow then_lbl (follow else_lbl (stack, depth))
          in
          next stack depth ()))
  in
  let entry = { fr_label = Graphs.Cfg.entry cfg; fr_acc = []; fr_edges = [] } in
  next [ entry ] 1

(* ------------------------------------------------------------------ *)
(* Phase 2: splice callee traces into caller traces at call sites.

   Each call mark is replaced by the cross-product of (at most
   [expansion_fanout]) callee traces with the expansions of the rest of
   the trace, callee-major, each spliced between the call mark and a
   matching return mark. The [max_paths] cap is applied at every
   combination point, so the cross-product never grows past it. Callee
   trace sets come from a [lookup] returning re-traversable sequences
   forced on demand — a spliced trace exists only while the consumer
   looks at it. A call whose callee has no traces (undefined, or a
   recursive cycle's not-yet-built entry) keeps its bare call mark. *)
let expand_lookup (config : Config.t) ~lookup (trace : t) : t Seq.t =
  let cap = config.max_paths in
  let rec expand trace : t Seq.t =
    match trace with
    | [] -> Seq.return []
    | ({ Event.kind = Event.Call_mark callee; fname; loc } as ev) :: rest -> (
      let rests = Seq.memoize (Seq.take cap (expand rest)) in
      match lookup callee with
      | Some callee_traces when callee_traces () <> Seq.Nil ->
        let callee_traces = Seq.take config.expansion_fanout callee_traces in
        Seq.take cap
          (Seq.concat_map
             (fun ct ->
               Seq.map
                 (fun r ->
                   (ev :: ct)
                   @ (Event.make ~fname ~loc (Event.Ret_mark callee) :: r))
                 rests)
             callee_traces)
      | Some _ | None -> Seq.map (fun r -> ev :: r) rests)
    | ev :: rest -> Seq.map (fun r -> ev :: r) (expand rest)
  in
  Seq.take cap (expand trace)

(* ------------------------------------------------------------------ *)
(* The interprocedural memo.

   Each function's merged traces are a memoized [Seq]: a caller splices
   only [expansion_fanout] of a callee's traces per call site, so
   forcing a caller forces just the demanded prefix of each callee's.

   Functions in recursive SCCs are materialized instead, which bounds
   recursion unrolling as §4.3 describes. Pass 1 expands them in
   call-graph postorder (callees first, the Figure 11 merge order), each
   splicing the pass-1 entries built so far — a cycle's back edge finds
   no entry and keeps its call mark. Passes 2..[recursion_bound] then
   re-expand every cyclic function from the previous pass's table:

   - [lz_cyclic] is the pass-1 table. Acyclic consumers splice THIS.
   - the re-expansion passes read the current cyclic table
     ([materialize]'s [cur]); a cyclic root reads the last pass.

   [lz_seqs] holds suspended computation, so a [lazy_memo] must stay
   confined to one domain; the tables it shares ([lz_intra],
   [lz_cyclic]) are frozen before any sequence escapes [stream]. *)

type lazy_memo = {
  lz_config : Config.t;
  lz_intra : (string, t list) Hashtbl.t;  (* shared, frozen *)
  lz_cyclic : (string, t list) Hashtbl.t;  (* shared, frozen *)
  lz_cyc_set : (string, unit) Hashtbl.t;  (* shared, frozen *)
  lz_seqs : (string, t Seq.t) Hashtbl.t;  (* per-consumer *)
}

let rec lazy_entry lm name : t Seq.t option =
  match Hashtbl.find_opt lm.lz_seqs name with
  | Some s ->
    Obs.Metrics.incr m_memo_hits;
    Some s
  | None -> (
    match Hashtbl.find_opt lm.lz_cyclic name with
    | Some ts ->
      Obs.Metrics.incr m_memo_hits;
      Some (List.to_seq ts)
    | None when Hashtbl.mem lm.lz_cyc_set name ->
      (* cyclic entry not built yet (later in the postorder pass): keep
         the call mark — expanding lazily here would recurse through the
         cycle forever *)
      Obs.Metrics.incr m_memo_misses;
      None
    | None -> (
      match Hashtbl.find_opt lm.lz_intra name with
      | None -> None
      | Some own ->
        Obs.Metrics.incr m_memo_misses;
        let s =
          Seq.memoize
            (Seq.take lm.lz_config.Config.max_paths
               (Seq.concat_map (expand_lazy lm) (List.to_seq own)))
        in
        Hashtbl.add lm.lz_seqs name s;
        Some s))

and expand_lazy lm (trace : t) : t Seq.t =
  expand_lookup lm.lz_config ~lookup:(lazy_entry lm) trace

(* Functions in recursive SCCs (singleton SCCs only count when
   self-calling). *)
let cyclic_funcs cg =
  List.concat_map
    (fun scc ->
      match scc with
      | [ f ] when not (List.mem f (Graphs.Callgraph.callees cg f)) -> []
      | fs -> fs)
    (Graphs.Callgraph.sccs cg)

(* Intra traces for everything but [skip], plus the materialized cyclic
   tables: [cyclic_pass1] (what acyclic consumers splice) and
   [cyclic_cur] (the bounded-unrolling fixpoint, what a cyclic root
   reads). *)
let build_lazy events (config : Config.t) prog cg ~skip =
  let intra = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let fname = Nvmir.Func.name f in
      if not (List.mem fname skip) then
        Hashtbl.replace intra fname
          (List.of_seq
             (Seq.take config.max_paths
                (stream_function events config ~stats:(fresh_stats ()) f))))
    (Nvmir.Prog.funcs prog);
  let cyclic = cyclic_funcs cg in
  let cyc_set : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace cyc_set f ()) cyclic;
  let cyclic_pass1 : (string, t list) Hashtbl.t = Hashtbl.create 8 in
  (* shared acyclic consumer: reused across cyclic builds so their
     acyclic callees expand once; always splices pass-1 cyclic entries *)
  let shared =
    {
      lz_config = config;
      lz_intra = intra;
      lz_cyclic = cyclic_pass1;
      lz_cyc_set = cyc_set;
      lz_seqs = Hashtbl.create 32;
    }
  in
  let materialize cur fname =
    let lookup name =
      match Hashtbl.find_opt cur name with
      | Some ts -> Some (List.to_seq ts)
      | None -> lazy_entry shared name
    in
    let own = Option.value ~default:[] (Hashtbl.find_opt intra fname) in
    List.of_seq
      (Seq.take config.max_paths
         (Seq.concat_map (expand_lookup config ~lookup) (List.to_seq own)))
  in
  List.iter
    (fun fname ->
      if List.mem fname cyclic && not (List.mem fname skip) then
        Hashtbl.replace cyclic_pass1 fname (materialize cyclic_pass1 fname))
    (Graphs.Callgraph.postorder cg);
  let cyclic_cur = Hashtbl.copy cyclic_pass1 in
  if cyclic <> [] then
    for _ = 2 to config.recursion_bound do
      List.iter
        (fun fname ->
          if not (List.mem fname skip) then
            Hashtbl.replace cyclic_cur fname (materialize cyclic_cur fname))
        cyclic
    done;
  (intra, cyclic_pass1, cyclic_cur, cyc_set)

let resolve_roots ~roots cg prog =
  match roots with
  | Some rs -> rs
  | None -> (
    match Graphs.Callgraph.roots cg with
    | [] -> Nvmir.Prog.func_names prog
    | rs -> rs)

(* The root list a rootless [stream] would enumerate, in that
   same order — the serve cache keys its per-root entries off this. *)
let default_roots prog =
  resolve_roots ~roots:None (Graphs.Callgraph.of_prog prog) prog

(* ------------------------------------------------------------------ *)
(* Streaming entry point: one lazy trace sequence per root.

   A root is streamable when nothing calls it (its memo entry would
   never be read) and it is not part of a recursive cycle (cyclic
   functions need their materialized previous-pass expansion). Such a
   root's paths never exist as a list: its intra DFS and call-site
   expansion are both demand-driven. Non-streamable roots fall back to
   reading the memo — correct, just not lazy.

   Everything mutable (DSG resolution, memo tables, per-block event
   caches) is built here, before any sequence is returned; forcing the
   sequences only reads, so distinct roots can be consumed from
   distinct domains concurrently (after [Dsa.Arena.compress]). *)

type source = { root : string; s_stats : stats; traces : t Seq.t }

(* Number of non-marker events. *)
let length trace =
  List.fold_left (fun n e -> if Event.is_marker e then n else n + 1) 0 trace

let stream ?(config = Config.default) ?roots dsg prog : source list =
  let events = precompute_block_events dsg prog in
  let cg = Graphs.Callgraph.of_prog prog in
  let requested = resolve_roots ~roots cg prog in
  let never_called = Graphs.Callgraph.roots cg in
  let cyclic = cyclic_funcs cg in
  let streamable r = List.mem r never_called && not (List.mem r cyclic) in
  let streamed = List.filter streamable requested in
  let intra, cyclic_pass1, cyclic_cur, cyc_set =
    build_lazy events config prog cg ~skip:streamed
  in
  let funcs = Nvmir.Prog.funcs prog in
  List.map
    (fun r ->
      let s_stats = fresh_stats () in
      let count tr =
        Obs.Metrics.incr m_paths;
        s_stats.paths <- s_stats.paths + 1;
        s_stats.events <- s_stats.events + length tr;
        tr
      in
      (* one consumer per root: [lz_seqs] holds suspended state, so
         distinct roots must not share it across domains *)
      let lm =
        {
          lz_config = config;
          lz_intra = intra;
          lz_cyclic = cyclic_pass1;
          lz_cyc_set = cyc_set;
          lz_seqs = Hashtbl.create 32;
        }
      in
      let traces =
        if List.mem r streamed then
          match List.find_opt (fun f -> Nvmir.Func.name f = r) funcs with
          | None -> Seq.empty
          | Some f ->
            Seq.map count
              (Seq.take config.max_paths
                 (Seq.concat_map (expand_lazy lm)
                    (stream_function events config ~stats:s_stats f)))
        else if Hashtbl.mem cyc_set r then begin
          (* a recursive root needs its bounded-unrolling fixpoint,
             materialized during prepare *)
          let ts = Option.value ~default:[] (Hashtbl.find_opt cyclic_cur r) in
          s_stats.peak_live <- List.length ts;
          Seq.map count (List.to_seq ts)
        end
        else begin
          (* called-from-elsewhere root: lazily expanded like a callee;
             its intra traces are materialized, so count those as live *)
          s_stats.peak_live <-
            List.length
              (Option.value ~default:[] (Hashtbl.find_opt intra r));
          match lazy_entry lm r with
          | None -> Seq.empty
          | Some s -> Seq.map count s
        end
      in
      { root = r; s_stats; traces })
    requested

(* Every root's traces, forced into lists. *)
let collect ?config ?roots dsg prog : (string * t list) list =
  List.map
    (fun src -> (src.root, List.of_seq src.traces))
    (stream ?config ?roots dsg prog)

let pp ppf (trace : t) =
  Fmt.pf ppf "@[<v 2>trace (%d events)@ %a@]" (List.length trace)
    Fmt.(list ~sep:(any "@ ") Event.pp)
    trace
