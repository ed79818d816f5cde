(* The traced form of the end-to-end calls: [check] makes the same public
   layer calls as [Analysis.Checker.check] (streaming engine, default
   sensitivities) and [analyze] the same as [Deepmc.Driver.analyze] with
   crash exploration and recovery verification, each inside a span. Both
   return the warnings the end-to-end call returns, which the workloads'
   oracles check the same way. *)

module A = Analysis

(* One root, path by path: forcing the lazy sequence is trace expansion,
   [Incremental.feed]/[finish] is rule evaluation. Dedup keeps the first
   occurrence, as the checker does. *)
let check_root ctx (src : A.Trace.source) =
  let seen = Hashtbl.create 16 in
  let kept = ref [] and raw = ref 0 in
  let rec go seq =
    let t0 = Tracer.now () in
    let node = seq () in
    Tracer.add "expand" (Int64.sub (Tracer.now ()) t0);
    match node with
    | Seq.Nil -> ()
    | Seq.Cons (trace, rest) ->
      let t1 = Tracer.now () in
      let ws =
        A.Rules.Incremental.finish ctx
          (A.Rules.Incremental.feed A.Rules.Incremental.start trace)
      in
      Tracer.add "rules" (Int64.sub (Tracer.now ()) t1);
      raw := !raw + List.length ws;
      List.iter
        (fun w ->
          let k = A.Warning.dedup_key w in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            kept := w :: !kept
          end)
        ws;
      go rest
  in
  go src.A.Trace.traces;
  let st = src.A.Trace.s_stats in
  ( {
      A.Checker.pr_root = src.A.Trace.root;
      pr_warnings = List.rev !kept;
      pr_paths = st.A.Trace.paths;
      pr_events = st.A.Trace.events;
      pr_peak = st.A.Trace.peak_live;
    },
    !raw )

let check ~model ?roots prog =
  let per_root, result =
    Tracer.with_ "Checker.check" (fun () ->
        let dsg =
          Tracer.with_ "Dsg.build" (fun () ->
              Dsa.Dsg.build ~field_sensitive:true ~offset_sensitive:true
                ~persistent_roots:[] prog)
        in
        let ctx = { A.Rules.model; dsg; tenv = Nvmir.Prog.tenv prog } in
        let sources =
          Tracer.with_ "Trace.stream" (fun () -> A.Trace.stream ?roots dsg prog)
        in
        Tracer.with_ "Arena.compress" (fun () ->
            Dsa.Arena.compress (Dsa.Dsg.arena dsg));
        let per_root =
          Tracer.with_ "Pool.map" (fun () ->
              let parent = Tracer.current () in
              Pool.map (Pool.default ())
                (fun src ->
                  Tracer.with_ ~parent "check-root" (fun () ->
                      check_root ctx src))
                sources)
        in
        ( per_root,
          Tracer.with_ "Checker.merge_roots" (fun () ->
              A.Checker.merge_roots ~model ~dsg (List.map fst per_root)) ))
  in
  let cap = A.Config.default.A.Config.max_paths in
  List.iter
    (fun ((pr : A.Checker.per_root), raw) ->
      Layers.add "trace.paths" (float_of_int pr.pr_paths);
      Layers.add "trace.events" (float_of_int pr.pr_events);
      if pr.pr_paths >= cap then Layers.add "trace.roots_at_path_cap" 1.;
      Layers.add "rules.raw_warnings" (float_of_int raw))
    per_root;
  Layers.add "trace.peak_live_paths"
    (float_of_int result.A.Checker.peak_paths);
  Layers.add "rules.final_warnings"
    (float_of_int (List.length result.A.Checker.warnings));
  result

(* Replayed after the request, outside its span: the call graph is built
   inside [Trace.stream], so its cost is measured on a second build. *)
let callgraph_probe prog =
  Tracer.with_ "probe" (fun () ->
      ignore
        (Tracer.with_ "Callgraph.of_prog" (fun () ->
             Graphs.Callgraph.of_prog prog)))

let crash_bound = 256

type analysis = {
  warnings : A.Warning.t list;
  recovery : Recover.report option;
}

let analyze ~model ~roots ~entry ~args ~seed prog =
  let static = check ~model ~roots prog in
  let dyn_warnings =
    Tracer.with_ "Interp.run" (fun () ->
        let pmem = Runtime.Pmem.create () in
        let checker = Runtime.Dynamic.create ~model () in
        Runtime.Dynamic.attach checker pmem;
        let interp = Runtime.Interp.create ~pmem prog in
        (try ignore (Runtime.Interp.run ~entry ~args interp)
         with Runtime.Interp.Runtime_error _ | Runtime.Interp.Out_of_fuel -> ());
        let s = Runtime.Dynamic.summary checker in
        Layers.add "interp.steps" (float_of_int (Runtime.Interp.steps interp));
        Layers.add "dynamic.waw" (float_of_int s.Runtime.Dynamic.waw);
        Layers.add "dynamic.raw" (float_of_int s.Runtime.Dynamic.raw);
        Runtime.Dynamic.warnings checker)
  in
  let recovery =
    if Nvmir.Prog.find_func prog "recover" = None then None
    else
      let r =
        Tracer.with_ "Recover.verify" (fun () ->
            Recover.verify ~entry ~args ~recovery_entry:"recover"
              ~bound:crash_bound ~seed ~model prog)
      in
      Layers.add "recover.images_checked" (float_of_int r.Recover.images_checked);
      Some r
  in
  let warnings =
    Tracer.with_ "Warning.merge" (fun () ->
        A.Warning.dedup
          (static.A.Checker.warnings @ dyn_warnings
          @ match recovery with Some r -> r.Recover.warnings | None -> [])
        |> A.Warning.sort)
  in
  let crash =
    Tracer.with_ "Crash_sweep.explore_program" (fun () ->
        Deepmc.Crash_sweep.explore_program ~bound:crash_bound ~seed ~entry
          ~args prog)
  in
  Layers.add "crash.images_enumerated"
    (float_of_int crash.Runtime.Crash_space.images_enumerated);
  Layers.add "crash.images_distinct"
    (float_of_int crash.Runtime.Crash_space.images_distinct);
  { warnings; recovery }
