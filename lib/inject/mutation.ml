(* Mutation-based persistency-bug injection.

   The operators re-introduce exactly the rule-class violations of
   Tables 4/5 into warning-clean programs. Site selection is the heart
   of the module: a site is admitted only when the mutation provably
   triggers the target rule at a known file:line under the base
   program's persistency model (DESIGN.md §6d gives the argument per
   operator). The price of that soundness is conservatism — sites the
   analysis cannot locally justify are skipped, never guessed. *)

module W = Analysis.Warning
module I = Nvmir.Instr
module L = Nvmir.Loc
module R = Deepmc.Rewrite

type operator =
  | Delete_flush
  | Delete_fence
  | Reorder_fence
  | Hoist_write
  | Duplicate_flush
  | Widen_flush
  | Drop_tx_add
  | Split_strand
  | Strip_crc_guard
  | Silence_recovery
  | Drift_recovery_store

let all_operators =
  [
    Delete_flush;
    Delete_fence;
    Reorder_fence;
    Hoist_write;
    Duplicate_flush;
    Widen_flush;
    Drop_tx_add;
    Split_strand;
    Strip_crc_guard;
    Silence_recovery;
    Drift_recovery_store;
  ]

let operator_name = function
  | Delete_flush -> "delete-flush"
  | Delete_fence -> "delete-fence"
  | Reorder_fence -> "reorder-fence"
  | Hoist_write -> "hoist-write"
  | Duplicate_flush -> "duplicate-flush"
  | Widen_flush -> "widen-flush"
  | Drop_tx_add -> "drop-tx-add"
  | Split_strand -> "split-strand"
  | Strip_crc_guard -> "strip-crc-guard"
  | Silence_recovery -> "silence-recovery"
  | Drift_recovery_store -> "drift-recovery-store"

let operator_of_string s =
  List.find_opt (fun o -> String.equal (operator_name o) s) all_operators

type tier = Static_tier | Dynamic_tier | Recovery_tier

let tier_name = function
  | Static_tier -> "static"
  | Dynamic_tier -> "dynamic"
  | Recovery_tier -> "recovery"

(* Strand splitting escapes the static rules only when the split lands
   between writes the trace abstraction cannot order; we still expect
   the static strand rule to fire, but the authoritative tier is the
   dynamic checker observing the actual race. The corruption operators
   break the recovery path, which no trace rule sees at all — only the
   recovery executor ([Recover.verify]) can score them. Everything
   else is squarely in the static rules' scope. *)
let operator_tier = function
  | Split_strand -> Dynamic_tier
  | Strip_crc_guard | Silence_recovery | Drift_recovery_store ->
    Recovery_tier
  | Delete_flush | Delete_fence | Reorder_fence | Hoist_write
  | Duplicate_flush | Widen_flush | Drop_tx_add ->
    Static_tier

type expect = { rules : W.rule_id list; file : string; line : int }

(* [line = 0] is a file-level wildcard: some knock-on warnings (e.g.
   semantic-mismatch after hoisting a write out of its persist unit)
   legitimately land on sibling writes whose lines the operator cannot
   predict. *)
let expect_matches e (w : W.t) =
  List.exists (fun r -> r = w.W.rule) e.rules
  && String.equal w.W.loc.L.file e.file
  && (e.line = 0 || w.W.loc.L.line = e.line)

type truth = {
  operator : operator;
  tier : tier;
  primary : expect;
  collateral : expect list;
}

type mutant = {
  id : string;
  base : string;
  model : Analysis.Model.t;
  prog : Nvmir.Prog.t;
  truth : truth;
}

(* ------------------------------------------------------------------ *)
(* Small IR classifiers *)

let loc_ok l = not (L.is_none l)

let flush_target (ins : I.t) =
  match ins.I.kind with
  | I.Flush { target; extent } | I.Persist { target; extent } ->
    Some (target, extent)
  | _ -> None

let is_standalone_flush (ins : I.t) =
  match ins.I.kind with I.Flush _ -> true | _ -> false

let is_fence_like (ins : I.t) =
  match ins.I.kind with I.Fence | I.Persist _ -> true | _ -> false

let is_call (ins : I.t) =
  match ins.I.kind with I.Call _ -> true | _ -> false

(* Functions reachable from the analysis roots; mutations elsewhere
   would be invisible to every detector. *)
let reachable prog roots =
  let seen = Hashtbl.create 16 in
  let rec go f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      match Nvmir.Prog.find_func prog f with
      | None -> ()
      | Some fn -> List.iter go (Nvmir.Func.callees fn)
    end
  in
  let roots =
    match roots with [] -> Nvmir.Prog.func_names prog | rs -> rs
  in
  List.iter go roots;
  seen

(* ------------------------------------------------------------------ *)
(* Block surgery: every mutation is a single [map_block] *)

let edit_block prog ~fname ~label f =
  R.map_block prog ~in_func:fname ~in_block:label f

let at ~fname ~label j = { R.in_func = fname; in_block = label; index = j }

(* move instruction [i] to just after [j] (i < j) *)
let hoist_index prog ~fname ~label ~from:i ~past:j =
  edit_block prog ~fname ~label (fun l ->
      let arr = Array.of_list l in
      List.concat
        (List.mapi
           (fun k ins ->
             if k = i then []
             else if k = j then [ ins; arr.(i) ]
             else [ ins ])
           l))

(* move the fence at [j] to just before the flush at [i] (i < j) *)
let swap_fence_index prog ~fname ~label ~fence:j ~before:i =
  edit_block prog ~fname ~label (fun l ->
      let arr = Array.of_list l in
      List.concat
        (List.mapi
           (fun k ins ->
             if k = j then []
             else if k = i then [ arr.(j); ins ]
             else [ ins ])
           l))

(* ------------------------------------------------------------------ *)

type site = {
  op : operator;
  apply : Nvmir.Prog.t -> Nvmir.Prog.t;
  s_primary : expect;
  s_collateral : expect list;
}

let expect ?(rules = []) loc = { rules; file = loc.L.file; line = loc.L.line }

let mutate ?(operators = all_operators) ?(config = Analysis.Config.default)
    ~base ~model ~roots prog =
  let dsg = Analysis.Config.build_dsg config prog in
  let tenv = Nvmir.Prog.tenv prog in
  let live = reachable prog roots in
  let resolve fname p = Dsa.Dsg.resolve dsg ~fname p in
  let resolve_ext fname p e = Dsa.Dsg.resolve_extent dsg ~fname p e in
  let persistent fname p = Dsa.Dsg.is_persistent_place dsg ~fname p in
  let nfields node =
    let n = Dsa.Arena.canonical (Dsa.Dsg.arena dsg) node in
    match n.Dsa.Arena.ty with
    | Some (Nvmir.Ty.Named s) -> (
      match Nvmir.Ty.env_find tenv s with
      | Some sd -> Some (List.length sd.Nvmir.Ty.fields)
      | None -> None)
    | Some _ | None -> None
  in
  let sites = ref [] in
  let push s = sites := s :: !sites in
  let wants op = List.memq op operators in
  List.iter
    (fun (fn : Nvmir.Func.t) ->
      let fname = fn.Nvmir.Func.fname in
      if Hashtbl.mem live fname then begin
        (* The recovery-tier operators target the recovery convention:
           only a function named [recover] is executed by the recovery
           verifier, so only there can a mutation be scored. Whole-path
           defects (silencing, drift) are reported at the verifier's
           anchor — the first located instruction of the entry block. *)
        let is_recovery = String.equal fname "recover" in
        let recovery_loc =
          match
            List.find_opt
              (fun (i : I.t) -> loc_ok i.I.loc)
              (Nvmir.Func.entry_block fn).Nvmir.Func.instrs
          with
          | Some i -> i.I.loc
          | None -> fn.Nvmir.Func.floc
        in
        (* function-wide durability coverage, for uniqueness tests *)
        let func_flushes = ref [] and func_logs = ref [] in
        let max_strand = ref 0 in
        Nvmir.Func.iter_instrs
          (fun _ ins ->
            (match flush_target ins with
            | Some (t, e) -> func_flushes := resolve_ext fname t e :: !func_flushes
            | None -> ());
            match ins.I.kind with
            | I.Tx_add { target; extent } ->
              func_logs := resolve_ext fname target extent :: !func_logs
            | I.Strand_begin n | I.Strand_end n ->
              if n > !max_strand then max_strand := n
            | _ -> ())
          fn;
        let covering_flushes a =
          List.length
            (List.filter (fun b -> Dsa.Aaddr.contained_in a b) !func_flushes)
        in
        let covering_logs a =
          List.length
            (List.filter (fun b -> Dsa.Aaddr.contained_in a b) !func_logs)
        in
        let log_on_node node =
          List.exists (fun (b : Dsa.Aaddr.t) -> b.Dsa.Aaddr.node = node) !func_logs
        in
        List.iter
          (fun (blk : Nvmir.Func.block) ->
            let label = blk.Nvmir.Func.label in
            let arr = Array.of_list blk.Nvmir.Func.instrs in
            let n = Array.length arr in
            let store_at k =
              match arr.(k).I.kind with
              | I.Store { dst; _ } when persistent fname dst ->
                Some (dst, resolve fname dst)
              | _ -> None
            in
            (* epoch-end locs in this block: allowed collateral for any
               mutation that disturbs flush/fence pairing *)
            let epoch_end_collateral =
              let acc = ref [] in
              Array.iter
                (fun ins ->
                  match ins.I.kind with
                  | I.Epoch_end when loc_ok ins.I.loc ->
                    acc :=
                      expect ~rules:[ W.Missing_persist_barrier ] ins.I.loc
                      :: !acc
                  | _ -> ())
                arr;
              List.rev !acc
            in
            (* ---- flush-anchored operators ---- *)
            for j = 0 to n - 1 do
              match flush_target arr.(j) with
              | None -> ()
              | Some (tgt, ext) ->
                let fj = resolve_ext fname tgt ext in
                let floc = arr.(j).I.loc in
                (* stores before j uniquely covered by this flush *)
                let covered_stores =
                  List.filter_map
                    (fun i ->
                      match store_at i with
                      | Some (_, sa)
                        when loc_ok arr.(i).I.loc
                             && Dsa.Aaddr.contained_in sa fj
                             && covering_flushes sa = 1
                             && covering_logs sa = 0 ->
                        Some (i, sa)
                      | _ -> None)
                    (List.init j Fun.id)
                in
                (* would deleting j strip a barrier some earlier flush
                   relies on? (only Persist carries a fence) *)
                let fence_load_bearing =
                  is_fence_like arr.(j)
                  &&
                  let rec back k =
                    if k < 0 then false
                    else if is_standalone_flush arr.(k) then true
                    else if is_fence_like arr.(k) || is_call arr.(k) then false
                    else back (k - 1)
                  in
                  back (j - 1)
                in
                (match covered_stores with
                | (i0, _) :: rest
                  when wants Delete_flush && not fence_load_bearing
                       && model <> Analysis.Model.Strand ->
                  push
                    {
                      op = Delete_flush;
                      apply = (fun p -> R.remove_at p (at ~fname ~label j));
                      s_primary =
                        expect ~rules:[ W.Unflushed_write ] arr.(i0).I.loc;
                      s_collateral =
                        List.map
                          (fun (i, _) ->
                            expect ~rules:[ W.Unflushed_write ] arr.(i).I.loc)
                          rest
                        (* the deleted flush may also have been the only
                           coverer of stores outside [covered_stores]
                           (e.g. multi-field flushes), and removing it
                           re-partitions persist units; both are
                           consequences of the injection, not detector
                           noise *)
                        @ [
                            {
                              rules = [ W.Unflushed_write; W.Semantic_mismatch ];
                              file = floc.L.file;
                              line = 0;
                            };
                          ]
                        @ epoch_end_collateral;
                    }
                | _ -> ());
                if wants Hoist_write && model <> Analysis.Model.Strand then
                  List.iter
                    (fun (i, _) ->
                      let moved_base =
                        match arr.(i).I.kind with
                        | I.Store { dst; _ } -> Nvmir.Place.base dst
                        | _ -> ""
                      in
                      let safe_gap =
                        List.for_all
                          (fun k ->
                            match arr.(k).I.kind with
                            | I.Load { src; _ } ->
                              not (String.equal (Nvmir.Place.base src) moved_base)
                            | I.Call _ | I.Tx_begin | I.Tx_end -> false
                            | _ -> true)
                          (List.init (j - i - 1) (fun d -> i + 1 + d))
                      in
                      if safe_gap then
                        push
                          {
                            op = Hoist_write;
                            apply =
                              (fun p ->
                                hoist_index p ~fname ~label ~from:i ~past:j);
                            s_primary =
                              expect ~rules:[ W.Unflushed_write ] arr.(i).I.loc;
                            s_collateral =
                              (if loc_ok floc then
                                 [
                                   expect
                                     ~rules:
                                       [
                                         W.Flush_unmodified;
                                         W.Durable_tx_no_writes;
                                         W.Multiple_flushes;
                                         W.Persist_same_object_in_tx;
                                         W.Missing_persist_barrier;
                                       ]
                                     floc;
                                 ]
                               else [])
                              (* moving the write re-partitions the
                                 function's persist units, so the
                                 split-atomic-update rule may fire on
                                 sibling writes anywhere in the file *)
                              @ [
                                  {
                                    rules = [ W.Semantic_mismatch ];
                                    file = arr.(i).I.loc.L.file;
                                    line = 0;
                                  };
                                ]
                              @ epoch_end_collateral;
                          })
                    covered_stores;
                (* duplicate: original flush leaves the line clean, the
                   copy re-persists it -> redundant write-back *)
                if
                  wants Duplicate_flush && loc_ok floc
                  && model <> Analysis.Model.Strand
                then begin
                  let overlapping =
                    List.filter_map
                      (fun i ->
                        match store_at i with
                        | Some (_, sa) when Dsa.Aaddr.may_overlap sa fj ->
                          Some sa
                        | _ -> None)
                      (List.init j Fun.id)
                  in
                  if
                    overlapping <> []
                    && List.for_all
                         (fun sa -> Dsa.Aaddr.contained_in sa fj)
                         overlapping
                  then
                    push
                      {
                        op = Duplicate_flush;
                        apply =
                          (fun p ->
                            R.insert_after p (at ~fname ~label j) [ arr.(j) ]);
                        s_primary =
                          expect
                            ~rules:
                              [ W.Multiple_flushes; W.Persist_same_object_in_tx ]
                            floc;
                        s_collateral = [];
                      }
                end;
                (* widen: exact field flush -> whole object *)
                if
                  wants Widen_flush && ext = I.Exact && loc_ok floc
                  && model <> Analysis.Model.Strand
                then begin
                  match Nvmir.Place.first_field tgt with
                  | None -> ()
                  | Some f -> (
                    let ea = resolve fname tgt in
                    match (ea.Dsa.Aaddr.field, nfields ea.Dsa.Aaddr.node) with
                    | Some _, Some nf when nf >= 2 ->
                      let node = ea.Dsa.Aaddr.node in
                      let node_stores =
                        List.filter_map
                          (fun i ->
                            match store_at i with
                            | Some (_, sa)
                              when sa.Dsa.Aaddr.node = node -> Some sa
                            | _ -> None)
                          (List.init j Fun.id)
                      in
                      let only_this_field =
                        node_stores <> []
                        && List.for_all
                             (fun (sa : Dsa.Aaddr.t) ->
                               sa.Dsa.Aaddr.field = Some f)
                             node_stores
                      in
                      if only_this_field && not (log_on_node node) then
                        push
                          {
                            op = Widen_flush;
                            apply =
                              (fun p ->
                                let kind' =
                                  match arr.(j).I.kind with
                                  | I.Flush { target; _ } ->
                                    I.Flush { target; extent = I.Object }
                                  | I.Persist { target; _ } ->
                                    I.Persist { target; extent = I.Object }
                                  | k -> k
                                in
                                R.replace_at p (at ~fname ~label j)
                                  { arr.(j) with I.kind = kind' });
                            s_primary =
                              expect ~rules:[ W.Flush_unmodified ] floc;
                            s_collateral = [];
                          }
                    | _ -> ())
                end
            done;
            (* ---- fence-anchored operators ---- *)
            let fence_ops =
              (wants Delete_fence || wants Reorder_fence)
              && model <> Analysis.Model.Strand
            in
            if fence_ops then
              for j = 0 to n - 1 do
                match arr.(j).I.kind with
                | I.Fence ->
                  (* backward: the standalone flush this fence orders,
                     with nothing fence-like or opaque in between *)
                  let rec back k =
                    if k < 0 then None
                    else if is_standalone_flush arr.(k) then Some k
                    else if is_fence_like arr.(k) || is_call arr.(k) then None
                    else back (k - 1)
                  in
                  let flush_i = back (j - 1) in
                  (* forward: what does the trace meet next? *)
                  let rec fwd k =
                    if k >= n then `End
                    else
                      match arr.(k).I.kind with
                      | I.Fence | I.Persist _ -> `Fence
                      | I.Call _ -> `Opaque
                      | I.Tx_add _ | I.Tx_begin -> `Trigger
                      | I.Store { dst; _ } when persistent fname dst ->
                        `Trigger
                      | I.Epoch_end -> `Epoch_end k
                      | I.Epoch_begin -> `Epoch_boundary
                      | _ -> fwd (k + 1)
                  in
                  let ahead = fwd (j + 1) in
                  let in_epoch i =
                    let rec back k =
                      if k < 0 then false
                      else
                        match arr.(k).I.kind with
                        | I.Epoch_begin -> true
                        | I.Epoch_end -> false
                        | _ -> back (k - 1)
                    in
                    back (i - 1)
                  in
                  (match (model, flush_i, ahead) with
                  | Analysis.Model.Strict, Some i, `Trigger
                    when loc_ok arr.(i).I.loc ->
                    if wants Delete_fence then
                      push
                        {
                          op = Delete_fence;
                          apply = (fun p -> R.remove_at p (at ~fname ~label j));
                          s_primary =
                            expect
                              ~rules:[ W.Missing_persist_barrier ]
                              arr.(i).I.loc;
                          s_collateral = [];
                        };
                    if
                      wants Reorder_fence
                      && List.for_all
                           (fun k -> not (I.is_persistency_relevant arr.(k)))
                           (List.init (j - i - 1) (fun d -> i + 1 + d))
                    then
                      push
                        {
                          op = Reorder_fence;
                          apply =
                            (fun p ->
                              swap_fence_index p ~fname ~label ~fence:j
                                ~before:i);
                          s_primary =
                            expect
                              ~rules:[ W.Missing_persist_barrier ]
                              arr.(i).I.loc;
                          s_collateral = [];
                        }
                  | Analysis.Model.Epoch, Some i, `Epoch_end k
                    when loc_ok arr.(k).I.loc && in_epoch i ->
                    (* statically the epoch closes without a barrier
                       (missing-persist-barrier at the epoch end); the
                       online checker sees the same bug as the write
                       still volatile when the epoch ends, reported at
                       the write site — both rules are the one injected
                       defect *)
                    if wants Delete_fence then
                      push
                        {
                          op = Delete_fence;
                          apply = (fun p -> R.remove_at p (at ~fname ~label j));
                          s_primary =
                            expect
                              ~rules:
                                [ W.Missing_persist_barrier; W.Unflushed_write ]
                              arr.(k).I.loc;
                          s_collateral = [];
                        };
                    if
                      wants Reorder_fence
                      && List.for_all
                           (fun d -> not (I.is_persistency_relevant arr.(i + 1 + d)))
                           (List.init (j - i - 1) Fun.id)
                    then
                      push
                        {
                          op = Reorder_fence;
                          apply =
                            (fun p ->
                              swap_fence_index p ~fname ~label ~fence:j
                                ~before:i);
                          s_primary =
                            expect
                              ~rules:
                                [ W.Missing_persist_barrier; W.Unflushed_write ]
                              arr.(k).I.loc;
                          s_collateral = [];
                        }
                  | _ -> ())
                | _ -> ()
              done;
            (* ---- transaction log drops ---- *)
            if wants Drop_tx_add && model <> Analysis.Model.Strand then
              for j = 0 to n - 1 do
                match arr.(j).I.kind with
                | I.Tx_add { target; extent } ->
                  let la = resolve_ext fname target extent in
                  let rec in_tx k =
                    if k < 0 then false
                    else
                      match arr.(k).I.kind with
                      | I.Tx_begin -> true
                      | I.Tx_end -> false
                      | _ -> in_tx (k - 1)
                  in
                  if in_tx (j - 1) then begin
                    let logged_stores =
                      let rec fwd k acc =
                        if k >= n then List.rev acc
                        else
                          match arr.(k).I.kind with
                          | I.Tx_end -> List.rev acc
                          | _ ->
                            let acc =
                              match store_at k with
                              | Some (_, sa)
                                when loc_ok arr.(k).I.loc
                                     && Dsa.Aaddr.contained_in sa la
                                     && covering_logs sa = 1
                                     && covering_flushes sa = 0 ->
                                (k, sa) :: acc
                              | _ -> acc
                            in
                            fwd (k + 1) acc
                      in
                      fwd (j + 1) []
                    in
                    match logged_stores with
                    | (i0, _) :: rest ->
                      push
                        {
                          op = Drop_tx_add;
                          apply = (fun p -> R.remove_at p (at ~fname ~label j));
                          s_primary =
                            expect ~rules:[ W.Unflushed_write ] arr.(i0).I.loc;
                          s_collateral =
                            List.map
                              (fun (i, _) ->
                                expect ~rules:[ W.Unflushed_write ]
                                  arr.(i).I.loc)
                              rest;
                        }
                    | [] -> ()
                  end
                | _ -> ()
              done;
            (* ---- strand splits ---- *)
            if wants Split_strand && model = Analysis.Model.Strand then
              for bi = 0 to n - 1 do
                match arr.(bi).I.kind with
                | I.Strand_begin sid ->
                  let rec find_end k =
                    if k >= n then None
                    else
                      match arr.(k).I.kind with
                      | I.Strand_end sid' when sid' = sid -> Some k
                      | _ -> find_end (k + 1)
                  in
                  (match find_end (bi + 1) with
                  | None -> ()
                  | Some ei ->
                    let stores =
                      List.filter_map
                        (fun k ->
                          match store_at k with
                          | Some (_, sa) -> Some (k, sa)
                          | None -> None)
                        (List.init (ei - bi - 1) (fun d -> bi + 1 + d))
                    in
                    let rec first_pair = function
                      | [] -> None
                      | (p1, a1) :: rest -> (
                        match
                          List.find_opt
                            (fun ((p2, a2) : int * Dsa.Aaddr.t) ->
                              p2 > p1
                              && Dsa.Aaddr.may_overlap a1 a2
                              && loc_ok arr.(p2).I.loc)
                            rest
                        with
                        | Some (p2, _) -> Some (p1, p2)
                        | None -> first_pair rest)
                    in
                    (match first_pair stores with
                    | Some (p1, p2) ->
                      let fresh = !max_strand + 1 in
                      push
                        {
                          op = Split_strand;
                          apply =
                            (fun p ->
                              R.insert_after p (at ~fname ~label p1)
                                [
                                  I.make (I.Strand_end sid);
                                  I.make (I.Strand_begin fresh);
                                ]);
                          s_primary =
                            expect ~rules:[ W.Strand_dependence ]
                              arr.(p2).I.loc;
                          s_collateral = [];
                        }
                    | None -> ()))
                | _ -> ()
              done;
            (* ---- recovery-tier operators ---- *)
            if is_recovery then begin
              for j = 0 to n - 1 do
                match arr.(j).I.kind with
                (* strip-crc-guard: the check always passes, so every
                   replay load consumes unvalidated media *)
                | I.Crc_check { dst; _ }
                  when wants Strip_crc_guard && loc_ok arr.(j).I.loc ->
                  push
                    {
                      op = Strip_crc_guard;
                      apply =
                        (fun p ->
                          R.replace_at p (at ~fname ~label j)
                            {
                              arr.(j) with
                              I.kind =
                                I.Assign
                                  {
                                    dst;
                                    src = Nvmir.Operand.Bool_const true;
                                  };
                            });
                      (* the loads the guard covered sit on lines the
                         operator cannot predict from the check site *)
                      s_primary =
                        {
                          rules = [ W.Unguarded_recovery_read ];
                          file = arr.(j).I.loc.L.file;
                          line = 0;
                        };
                      s_collateral =
                        [
                          {
                            rules =
                              [
                                W.Silent_corruption_accept;
                                W.Non_idempotent_recovery;
                              ];
                            file = arr.(j).I.loc.L.file;
                            line = 0;
                          };
                        ];
                    }
                (* drift-recovery-store: a constant (re-)initialising
                   store becomes read-modify-write, so each recovery
                   run moves the slot — no longer a fix-point *)
                | I.Store { dst; src = Nvmir.Operand.Const _ }
                  when wants Drift_recovery_store
                       && loc_ok arr.(j).I.loc
                       && persistent fname dst
                       && covering_flushes (resolve fname dst) >= 1 ->
                  let v = Fmt.str "__drift%d" j in
                  let v1 = v ^ "n" in
                  push
                    {
                      op = Drift_recovery_store;
                      apply =
                        (fun p ->
                          edit_block p ~fname ~label (fun l ->
                              List.concat
                                (List.mapi
                                   (fun k ins ->
                                     if k <> j then [ ins ]
                                     else
                                       [
                                         {
                                           ins with
                                           I.kind = I.Load { dst = v; src = dst };
                                         };
                                         I.make
                                           (I.Binop
                                              {
                                                dst = v1;
                                                op = I.Add;
                                                lhs = Nvmir.Operand.Var v;
                                                rhs = Nvmir.Operand.Const 1;
                                              });
                                         {
                                           ins with
                                           I.kind =
                                             I.Store
                                               {
                                                 dst;
                                                 src = Nvmir.Operand.Var v1;
                                               };
                                         };
                                       ])
                                   l)));
                      s_primary =
                        expect ~rules:[ W.Non_idempotent_recovery ]
                          recovery_loc;
                      s_collateral =
                        [
                          {
                            rules = [ W.Unguarded_recovery_read ];
                            file = arr.(j).I.loc.L.file;
                            line = 0;
                          };
                        ];
                    }
                | _ -> ()
              done;
              (* silence-recovery: a nonzero (reject) return becomes
                 success, so detected corruption is accepted silently *)
              (match blk.Nvmir.Func.term with
              | Nvmir.Func.Ret (Some (Nvmir.Operand.Const c))
                when wants Silence_recovery && c <> 0 ->
                push
                  {
                    op = Silence_recovery;
                    apply =
                      (fun p ->
                        Deepmc.Rewrite.map_funcs p (fun f ->
                            if
                              not
                                (String.equal f.Nvmir.Func.fname fname)
                            then f
                            else
                              {
                                f with
                                Nvmir.Func.blocks =
                                  List.map
                                    (fun (b : Nvmir.Func.block) ->
                                      if
                                        String.equal b.Nvmir.Func.label
                                          label
                                      then
                                        {
                                          b with
                                          Nvmir.Func.term =
                                            Nvmir.Func.Ret
                                              (Some
                                                 (Nvmir.Operand.Const 0));
                                        }
                                      else b)
                                    f.Nvmir.Func.blocks;
                              }));
                    s_primary =
                      expect ~rules:[ W.Silent_corruption_accept ]
                        recovery_loc;
                    s_collateral = [];
                  }
              | _ -> ())
            end)
          fn.Nvmir.Func.blocks
      end)
    (Nvmir.Prog.funcs prog);
  let sites = List.rev !sites in
  (* stable per-operator numbering *)
  let counters = Hashtbl.create 8 in
  List.map
    (fun s ->
      let k =
        let c = try Hashtbl.find counters s.op with Not_found -> 0 in
        Hashtbl.replace counters s.op (c + 1);
        c
      in
      {
        id = Fmt.str "%s/%s/%d" base (operator_name s.op) k;
        base;
        model;
        prog = s.apply prog;
        truth =
          {
            operator = s.op;
            tier = operator_tier s.op;
            primary = s.s_primary;
            collateral = s.s_collateral;
          };
      })
    sites
