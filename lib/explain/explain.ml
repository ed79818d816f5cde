(* Warning provenance: collect every tier's witnesses for one program
   and correlate them into evidence bundles.

   The driver's merged warning list deduplicates by (rule, file, line)
   across tiers — exactly the information provenance needs to keep — so
   this module reads the tiers *before* the merge: the static checker
   result, the dynamic outcome, the recovery report, the crash-space
   witnesses and an optional fuzz campaign. Observations of the same
   bug share a bundle fingerprint ([Witness.bundle_fingerprint], the
   tier-independent bug identity) and render as one bundle with one
   witness per observing tier. *)

let m_witnesses =
  Obs.Metrics.counter "explain.witnesses"
    ~desc:"witnesses collected across tiers by the provenance engine"

let m_bundles =
  Obs.Metrics.counter "explain.bundles"
    ~desc:"evidence bundles after cross-tier correlation"

type evidence = {
  ev_tier : string;
  ev_warning : Analysis.Warning.t option; (* None for crash-space images *)
  ev_witness : Analysis.Witness.t;
  ev_fingerprint : string;
}

type bundle = {
  b_fingerprint : string;
  b_rule : string option; (* None for crash-space bundles *)
  b_loc : Nvmir.Loc.t option;
  b_fname : string option;
  b_evidence : evidence list; (* tier order: static..recover *)
}

let tier_rank = function
  | "static" -> 0
  | "dynamic" -> 1
  | "fuzz" -> 2
  | "crash" -> 3
  | "recover" -> 4
  | _ -> 5

let tiers b =
  List.sort_uniq
    (fun a b -> Int.compare (tier_rank a) (tier_rank b))
    (List.map (fun e -> e.ev_tier) b.b_evidence)

(* ------------------------------------------------------------------ *)
(* Collection *)

let evidence_of_warning ~tier (w : Analysis.Warning.t) =
  match w.Analysis.Warning.witness with
  | None -> None
  | Some wit ->
    Some
      {
        ev_tier = tier;
        ev_warning = Some w;
        ev_witness = wit;
        ev_fingerprint = Analysis.Witness.fingerprint wit;
      }

let crash_task_name = function
  | Runtime.Crash_space.Point k -> Fmt.str "point %d" k
  | Runtime.Crash_space.Exit -> "exit"

let evidence_of_crash (cw : Runtime.Crash_space.witness) =
  let wit =
    Analysis.Witness.Crash
      {
        c_task = crash_task_name cw.Runtime.Crash_space.w_task;
        c_image = Analysis.Witness.image_id cw.Runtime.Crash_space.w_persisted;
        c_persisted = cw.Runtime.Crash_space.w_persisted;
        c_detail = cw.Runtime.Crash_space.w_detail;
      }
  in
  {
    ev_tier = "crash";
    ev_warning = None;
    ev_witness = wit;
    ev_fingerprint = Analysis.Witness.fingerprint wit;
  }

let build ?fuzz (report : Deepmc.Driver.report) : bundle list =
  let warn_evidence =
    List.concat
      [
        List.filter_map
          (evidence_of_warning ~tier:"static")
          report.Deepmc.Driver.static.Analysis.Checker.warnings;
        List.filter_map
          (evidence_of_warning ~tier:"dynamic")
          report.Deepmc.Driver.dynamic_warnings;
        (match fuzz with
        | Some (o : Fuzz.Campaign.outcome) ->
          List.filter_map
            (evidence_of_warning ~tier:"fuzz")
            o.Fuzz.Campaign.warnings
        | None -> []);
        (match report.Deepmc.Driver.recovery with
        | Some r ->
          List.filter_map
            (evidence_of_warning ~tier:"recover")
            r.Recover.warnings
        | None -> []);
      ]
  in
  let crash_evidence =
    match report.Deepmc.Driver.crash_space with
    | Some cs ->
      List.map evidence_of_crash cs.Runtime.Crash_space.witnesses
    | None -> []
  in
  (* Group by bundle key; keep one witness per (tier, fingerprint). *)
  let groups : (string, evidence list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let add key e =
    match Hashtbl.find_opt groups key with
    | Some l ->
      if
        not
          (List.exists
             (fun e' ->
               e'.ev_tier = e.ev_tier && e'.ev_fingerprint = e.ev_fingerprint)
             !l)
      then l := e :: !l
    | None ->
      Hashtbl.replace groups key (ref [ e ]);
      order := key :: !order
  in
  List.iter
    (fun e ->
      match e.ev_warning with
      | Some w -> add (Analysis.Warning.bundle_fingerprint w) e
      | None -> assert false)
    warn_evidence;
  List.iter (fun e -> add e.ev_fingerprint e) crash_evidence;
  let bundles =
    List.rev_map
      (fun key ->
        let evidence =
          List.sort
            (fun a b ->
              match Int.compare (tier_rank a.ev_tier) (tier_rank b.ev_tier) with
              | 0 -> String.compare a.ev_fingerprint b.ev_fingerprint
              | c -> c)
            !(Hashtbl.find groups key)
        in
        let first_warning =
          List.find_map (fun e -> e.ev_warning) evidence
        in
        {
          b_fingerprint = key;
          b_rule =
            Option.map
              (fun (w : Analysis.Warning.t) ->
                Analysis.Warning.rule_name w.Analysis.Warning.rule)
              first_warning;
          b_loc =
            Option.map
              (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.loc)
              first_warning;
          b_fname =
            Option.map
              (fun (w : Analysis.Warning.t) -> w.Analysis.Warning.fname)
              first_warning;
          b_evidence = evidence;
        })
      !order
  in
  (* Deterministic order: located bundles by (loc, rule), crash-space
     bundles after, by fingerprint. *)
  let sorted =
    List.sort
      (fun a b ->
        match (a.b_loc, b.b_loc) with
        | Some la, Some lb -> (
          match Nvmir.Loc.compare la lb with
          | 0 ->
            compare (Option.value ~default:"" a.b_rule)
              (Option.value ~default:"" b.b_rule)
          | c -> c)
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> String.compare a.b_fingerprint b.b_fingerprint)
      bundles
  in
  Obs.Metrics.add m_witnesses
    (List.fold_left (fun n b -> n + List.length b.b_evidence) 0 sorted);
  Obs.Metrics.add m_bundles (List.length sorted);
  sorted

(* ------------------------------------------------------------------ *)
(* Annotated IR listing

   The canonical pretty-printed program with per-line event markers:
   every line whose '@ file:line' annotation appears in a bundle's
   witness slice (or warning location) is tagged with the bundle index
   and the role the event plays. *)

let listing_markers bundles =
  (* loc string -> (bundle index, marker) list, insertion-ordered *)
  let marks : (string, (int * string) list ref) Hashtbl.t = Hashtbl.create 32 in
  let add loc m =
    let key = Nvmir.Loc.to_string loc in
    match Hashtbl.find_opt marks key with
    | Some l -> if not (List.mem m !l) then l := m :: !l
    | None -> Hashtbl.replace marks key (ref [ m ])
  in
  List.iteri
    (fun i b ->
      let idx = i + 1 in
      (match (b.b_loc, b.b_rule) with
      | Some loc, Some rule -> add loc (idx, "!" ^ rule)
      | _ -> ());
      List.iter
        (fun e ->
          match e.ev_witness with
          | Analysis.Witness.Static { s_slice; _ } ->
            List.iter
              (fun (r : Analysis.Witness.event_ref) ->
                add r.Analysis.Witness.er_loc
                  (idx, r.Analysis.Witness.er_role))
              s_slice
          | _ -> ())
        b.b_evidence)
    bundles;
  fun loc_str ->
    match Hashtbl.find_opt marks loc_str with
    | Some l ->
      List.sort
        (fun (i, a) (j, b) ->
          match Int.compare i j with 0 -> String.compare a b | c -> c)
        (List.rev !l)
    | None -> []

(* Find the '@ file:line' annotation on a printed IR line, if any. *)
let loc_annotation line =
  match String.index_opt line '@' with
  | None -> None
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let rest = String.trim rest in
    if rest = "" then None else Some rest

let annotate_listing prog bundles : string =
  let markers = listing_markers bundles in
  let text = Fmt.str "%a" Nvmir.Prog.pp prog in
  let buf = Buffer.create (String.length text * 2) in
  let lines =
    (* the pretty-printer's trailing newlines would render as empty
       numbered rows *)
    let rec drop = function "" :: tl -> drop tl | ls -> ls in
    List.rev (drop (List.rev (String.split_on_char '\n' text)))
  in
  List.iteri
    (fun i line ->
      let ms =
        match loc_annotation line with Some l -> markers l | None -> []
      in
      if ms = [] then Buffer.add_string buf (Fmt.str "  %4d | %s\n" (i + 1) line)
      else
        Buffer.add_string buf
          (Fmt.str "  %4d | %-44s ;; %s\n" (i + 1) line
             (String.concat " "
                (List.map (fun (idx, m) -> Fmt.str "#%d:%s" idx m) ms))))
    lines;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_evidence ppf e =
  Fmt.pf ppf "@[<v 2>[%s] witness %s%s@ %a@]" e.ev_tier e.ev_fingerprint
    (match e.ev_warning with
    | Some w -> Fmt.str " — %s" w.Analysis.Warning.message
    | None -> "")
    Analysis.Witness.pp e.ev_witness

let pp_bundle ppf (i, b) =
  let header =
    match (b.b_rule, b.b_loc, b.b_fname) with
    | Some rule, Some loc, Some fname ->
      Fmt.str "[%s] %s (%s)" rule (Nvmir.Loc.to_string loc) fname
    | _ -> "crash-space inconsistency"
  in
  Fmt.pf ppf "@[<v>== bundle #%d %s %s ==@ tiers: %s@ %a@]" i
    b.b_fingerprint header
    (String.concat "+" (tiers b))
    Fmt.(list ~sep:cut pp_evidence)
    b.b_evidence

(* The tiers the run asked for and could not run, in static..recover
   order: the dynamic tier when it was given an entry, the crash and
   recovery tiers when requested. A failed forward run skips all three
   with its reason. *)
let skipped ~entry (report : Deepmc.Driver.report) =
  List.concat
    [
      (match (entry, report.Deepmc.Driver.dynamic) with
      | Some _, Deepmc.Driver.Dynamic_skipped reason -> [ ("dynamic", reason) ]
      | _ -> []);
      Option.fold ~none:[]
        ~some:(fun r -> [ ("crash space", r) ])
        report.Deepmc.Driver.crash_skipped;
      Option.fold ~none:[]
        ~some:(fun r -> [ ("recovery", r) ])
        report.Deepmc.Driver.recovery_skipped;
    ]

let render ~file ~model ~prog ~skipped bundles : string =
  let nev = List.fold_left (fun n b -> n + List.length b.b_evidence) 0 bundles in
  let header =
    Fmt.str "explain %s (%s model): %d witness(es) in %d evidence bundle(s)%s"
      file
      (Analysis.Model.to_string model)
      nev (List.length bundles)
      (String.concat ""
         (List.map
            (fun (tier, reason) -> Fmt.str "\n%s: skipped (%s)" tier reason)
            skipped))
  in
  if bundles = [] && skipped = [] then
    header ^ "\nno warnings: nothing to explain\n"
  else if bundles = [] then header ^ "\nno warnings from the tiers that ran\n"
  else
    Fmt.str "%s@.@.%a@.@.annotated listing:@.%s" header
      Fmt.(
        list ~sep:(any "@.@.") (fun ppf (i, b) -> pp_bundle ppf (i, b)))
      (List.mapi (fun i b -> (i + 1, b)) bundles)
      (annotate_listing prog bundles)

(* ------------------------------------------------------------------ *)
(* JSON *)

let to_json ~file ~model ~skipped bundles : Deepmc.Json_report.json =
  let open Deepmc.Json_report in
  let of_evidence e =
    Obj
      [
        ("tier", String e.ev_tier);
        ("fingerprint", String e.ev_fingerprint);
        ( "warning",
          match e.ev_warning with Some w -> of_warning w | None -> Null );
        ("witness", of_witness e.ev_witness);
      ]
  in
  let of_bundle b =
    Obj
      ([ ("fingerprint", String b.b_fingerprint) ]
      @ (match b.b_rule with Some r -> [ ("rule", String r) ] | None -> [])
      @ (match b.b_loc with
        | Some loc ->
          [
            ("file", String loc.Nvmir.Loc.file);
            ("line", Int loc.Nvmir.Loc.line);
          ]
        | None -> [])
      @ (match b.b_fname with
        | Some f -> [ ("function", String f) ]
        | None -> [])
      @ [
          ("tiers", List (List.map (fun t -> String t) (tiers b)));
          ("evidence", List (List.map of_evidence b.b_evidence));
        ])
  in
  Obj
    ([
       ("file", String file);
       ("model", String (Analysis.Model.to_string model));
     ]
    @ (match skipped with
      | [] -> []
      | _ ->
        [
          ( "skipped",
            Obj
              (List.map
                 (fun (tier, reason) ->
                   let key = String.map (function ' ' -> '_' | c -> c) tier in
                   (key, String reason))
                 skipped) );
        ])
    @ [ ("bundles", List (List.map of_bundle bundles)) ])
