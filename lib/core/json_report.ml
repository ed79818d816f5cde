(* Machine-readable report output (JSON), for CI integration and editor
   tooling. A tiny self-contained encoder — the report shapes are simple
   enough that a JSON library dependency is not warranted. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.1f" f
    else Fmt.pf ppf "%.6g" f
  | String s -> pp_string ppf s
  | List items ->
    Fmt.pf ppf "@[<hv 2>[%a]@]" Fmt.(list ~sep:(any ",@ ") pp) items
  | Obj fields ->
    let pp_field ppf (k, v) =
      Fmt.pf ppf "@[<hov 2>%a: %a@]" pp_string k pp v
    in
    Fmt.pf ppf "@[<hv 2>{%a}@]" Fmt.(list ~sep:(any ",@ ") pp_field) fields

and pp_string ppf s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Fmt.string ppf (Buffer.contents buf)

let to_string j = Fmt.str "%a" pp j

(* ------------------------------------------------------------------ *)
(* Encoders *)

(* Witness encoding. Encode-only: consumers read the JSON, nothing in
   the tree decodes it back into a [Witness.t]. *)
let of_witness (wit : Analysis.Witness.t) =
  let lines ls =
    List.map (fun (obj, line) -> Obj [ ("obj", Int obj); ("line", Int line) ]) ls
  in
  let fields =
    match wit with
    | Analysis.Witness.Static { s_slice; s_call_path } ->
      [
        ( "slice",
          List
            (List.map
               (fun (r : Analysis.Witness.event_ref) ->
                 Obj
                   [
                     ("role", String r.Analysis.Witness.er_role);
                     ("what", String r.Analysis.Witness.er_what);
                     ("file", String r.Analysis.Witness.er_loc.Nvmir.Loc.file);
                     ("line", Int r.Analysis.Witness.er_loc.Nvmir.Loc.line);
                     ("function", String r.Analysis.Witness.er_fname);
                   ])
               s_slice) );
        ("call_path", List (List.map (fun f -> String f) s_call_path));
      ]
    | Analysis.Witness.Dynamic { d_transition; d_strand; d_fences } ->
      [
        ("transition", String d_transition);
        ("strand", Int d_strand);
        ("fences", Int d_fences);
      ]
    | Analysis.Witness.Fuzz { f_genome; f_schedule; f_transition } ->
      [
        ("genome", String f_genome);
        ("schedule", String f_schedule);
        ("transition", String f_transition);
      ]
    | Analysis.Witness.Crash { c_task; c_image; c_persisted; c_detail } ->
      [
        ("at", String c_task);
        ("image", String c_image);
        ("persisted", List (lines c_persisted));
        ("detail", String c_detail);
      ]
    | Analysis.Witness.Recover
        { r_task; r_image; r_persisted; r_corruptions; r_verdict } ->
      [
        ("at", String r_task);
        ("image", String r_image);
        ("persisted", List (lines r_persisted));
        ( "corruptions",
          List
            (List.map
               (fun (obj, slot, kind) ->
                 Obj
                   [
                     ("obj", Int obj); ("slot", Int slot); ("kind", String kind);
                   ])
               r_corruptions) );
        ("verdict", String r_verdict);
      ]
  in
  Obj
    (("tier", String (Analysis.Witness.tier wit))
     :: fields
    @ [ ("fingerprint", String (Analysis.Witness.fingerprint wit)) ])

let of_warning (w : Analysis.Warning.t) =
  let witness =
    match w.Analysis.Warning.witness with
    | None -> []
    | Some wit ->
      [
        ("bundle", String (Analysis.Warning.bundle_fingerprint w));
        ("witness", of_witness wit);
      ]
  in
  Obj
    ([
      ("rule", String (Analysis.Warning.rule_name w.Analysis.Warning.rule));
      ( "category",
        String
          (match Analysis.Warning.category w with
          | Analysis.Warning.Model_violation -> "model-violation"
          | Analysis.Warning.Performance -> "performance") );
      ("model", String (Analysis.Model.to_string w.Analysis.Warning.model));
      ("file", String w.Analysis.Warning.loc.Nvmir.Loc.file);
      ("line", Int w.Analysis.Warning.loc.Nvmir.Loc.line);
      ("function", String w.Analysis.Warning.fname);
      ( "origin",
        String
          (match w.Analysis.Warning.origin with
          | Analysis.Warning.Static -> "static"
          | Analysis.Warning.Dynamic -> "dynamic") );
      ("message", String w.Analysis.Warning.message);
    ]
    @ witness)

let of_dynamic_summary (s : Runtime.Dynamic.summary) =
  Obj
    [
      ("waw_races", Int s.Runtime.Dynamic.waw);
      ("raw_races", Int s.Runtime.Dynamic.raw);
      ("unflushed_at_epoch_end", Int s.Runtime.Dynamic.unflushed);
      ("redundant_flushes", Int s.Runtime.Dynamic.redundant);
      ("tracked_cells", Int s.Runtime.Dynamic.tracked_cells);
      ("warning_count", Int s.Runtime.Dynamic.warning_count);
    ]

let of_crash_task = function
  | Runtime.Crash_space.Point k -> Int k
  | Runtime.Crash_space.Exit -> String "exit"

let of_crash_line (obj, line) =
  Obj [ ("obj", Int obj); ("line", Int line) ]

let of_crash_witness (w : Runtime.Crash_space.witness) =
  Obj
    [
      ("at", of_crash_task w.Runtime.Crash_space.w_task);
      ( "persisted",
        List (List.map of_crash_line w.Runtime.Crash_space.w_persisted) );
      ("detail", String w.Runtime.Crash_space.w_detail);
    ]

let of_crash_space (r : Runtime.Crash_space.report) =
  Obj
    [
      ("crash_points", Int r.Runtime.Crash_space.crash_points);
      ("images_enumerated", Int r.Runtime.Crash_space.images_enumerated);
      ("images_distinct", Int r.Runtime.Crash_space.images_distinct);
      ("pruning_ratio", Float (Runtime.Crash_space.pruning_ratio r));
      ("inconsistent", Int r.Runtime.Crash_space.inconsistent);
      ( "witnesses",
        List (List.map of_crash_witness r.Runtime.Crash_space.witnesses) );
    ]

let of_recovery (r : Recover.report) =
  let of_corruption (c : Runtime.Pmem.corruption) =
    Obj
      [
        ("obj", Int c.Runtime.Pmem.c_addr.Runtime.Pmem.obj_id);
        ("slot", Int c.Runtime.Pmem.c_addr.Runtime.Pmem.slot);
        ("kind", String (Runtime.Pmem.corruption_kind_name c.Runtime.Pmem.c_kind));
      ]
  in
  let of_check (c : Recover.image_check) =
    Obj
      [
        ("at", of_crash_task c.Recover.task);
        ("persisted", List (List.map of_crash_line c.Recover.persisted));
        ("corruptions", List (List.map of_corruption c.Recover.corruptions));
        ("verdict", String (Recover.verdict_name c.Recover.verdict));
        ("unguarded_reads", Int (List.length c.Recover.corrupt_reads));
        ("residual_corrupt", Int c.Recover.residual_corrupt);
        ("idempotent", Bool c.Recover.idempotent);
      ]
  in
  Obj
    [
      ("recovery_entry", String r.Recover.recovery_entry);
      ("crash_points", Int r.Recover.crash_points);
      ("images_checked", Int r.Recover.images_checked);
      ("corruptions_injected", Int r.Recover.corruptions_injected);
      ( "verdicts",
        Obj
          [
            ("restored", Int r.Recover.restored);
            ("flagged", Int r.Recover.flagged);
            ("silent_accept", Int r.Recover.silent_accepts);
            ("crashed", Int r.Recover.crashes);
          ] );
      ("non_idempotent", Int r.Recover.non_idempotent);
      ("sampled", Bool r.Recover.sampled);
      ("images", List (List.map of_check r.Recover.images));
      ("warnings", List (List.map of_warning r.Recover.warnings));
    ]

(* Telemetry snapshot encoding: counters and gauges become bare ints,
   histograms an object with count/sum and the non-empty log2 buckets.
   Empty object when telemetry never ran. *)
let of_metric_value = function
  | Obs.Metrics.Count n | Obs.Metrics.Level n -> Int n
  | Obs.Metrics.Dist h ->
    Obj
      [
        ("count", Int h.Obs.Metrics.h_count);
        ("sum", Int h.Obs.Metrics.h_sum);
        ( "buckets",
          List
            (List.map
               (fun (lo, n) -> Obj [ ("lo", Int lo); ("n", Int n) ])
               h.Obs.Metrics.h_buckets) );
      ]

let of_metrics samples =
  Obj (List.map (fun (name, v) -> (name, of_metric_value v)) samples)

(* A tier that was not requested is null; one skipped names why. *)
let skipped = function
  | Some reason -> Obj [ ("skipped", String reason) ]
  | None -> Null

let of_report (r : Driver.report) =
  let count f = Int (Option.fold ~none:0 ~some:f r.Driver.static) in
  Obj
    [
      ("model", String (Analysis.Model.to_string r.Driver.model));
      ("warnings", List (List.map of_warning r.Driver.warnings));
      ( "summary",
        Obj
          [
            ("total", Int (List.length r.Driver.warnings));
            ("violations", Int (List.length (Driver.violations r)));
            ("performance", Int (List.length (Driver.performance_bugs r)));
            ("traces_analyzed", count (fun s -> s.Analysis.Checker.trace_count));
            ("events_analyzed", count (fun s -> s.Analysis.Checker.event_count));
            ("elapsed_static_ms", Float (r.Driver.elapsed_static *. 1000.));
            ("elapsed_dynamic_ms", Float (r.Driver.elapsed_dynamic *. 1000.));
          ] );
      ( "dynamic",
        match r.Driver.dynamic with
        | Driver.Dynamic_ok s -> of_dynamic_summary s
        | Driver.Dynamic_skipped reason ->
          Obj
            [
              ("skipped", String reason);
              ("warning_count", Int (List.length r.Driver.dynamic_warnings));
            ] );
      ( "crash_space",
        match r.Driver.crash_space with
        | Some cs -> of_crash_space cs
        | None -> skipped r.Driver.crash_skipped );
      ( "recovery",
        match r.Driver.recovery with
        | Some rv -> of_recovery rv
        | None -> skipped r.Driver.recovery_skipped );
      ("metrics", of_metrics (Obs.Metrics.snapshot ()));
    ]

let of_score (s : Report.score) =
  Obj
    [
      ("warnings", Int (Report.warning_count s));
      ("validated", Int (Report.validated_count s));
      ("false_positives", Int (Report.false_positive_count s));
      ("missed", Int (List.length s.Report.missed));
      ("unexpected", Int (List.length s.Report.unexpected));
      ("recall", Float (Report.recall s));
    ]


