(* The repository benchmark (see README.md beside this file).

     main.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
              [--out FILE] [--quick]
     main.exe compare A.jsonl B.jsonl
     main.exe schema

   With --workload, runs that workload in this process and prints its
   metrics, one per line with unit and sample count, then one JSON
   object as the last line of stdout. Without it, runs every workload in
   a child process of its own, one at a time, so each peak RSS belongs
   to one workload. --out appends each run, with its provenance, as one
   JSON line; [compare] reads two such files. A traced run writes its
   Chrome trace under [trace_dir]. *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  quick : bool;
}

let trace_dir = "bench/e2e/results"

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace \
     [0|1]] [--out FILE] [--quick]\n\
    \       main.exe compare A.jsonl B.jsonl\n\
    \       main.exe schema";
  exit 2

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if Runner.find w = None then begin
        Fmt.epr "unknown workload %s; known: %s@." w
          (String.concat ", " Schema.workload_names);
        exit 2
      end;
      go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | _ -> usage ()
  in
  try
    go
      {
        workload = None;
        seed = 1;
        seconds = float_of_int Schema.run_seconds;
        trace = false;
        out = None;
        quick = false;
      }
      args
  with Failure _ -> usage ()

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The commit under test, when the run happens inside a git checkout. *)
let git_head () =
  if not (Sys.file_exists ".git") then None
  else
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let head = try Some (input_line ic) with End_of_file -> None in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> head | _ -> None

let metric_json (r : Runner.result) =
  Jsonw.Obj
    (List.map
       (fun (name, (v : Runner.value)) ->
         let unit_ =
           match Schema.find name with Some m -> m.Schema.unit_ | None -> ""
         in
         (name, Jsonw.Obj [ ("value", Float v.Runner.v); ("unit", String unit_) ]))
       r.Runner.metrics)

(* The --out record also keeps each end-to-end value before speed
   normalization. *)
let raw_json (r : Runner.result) =
  Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Float v)) r.Runner.raw)

let provenance o (r : Runner.result) =
  let opt f = function Some x -> f x | None -> Jsonw.Null in
  Jsonw.Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("pool_size", Int (Pool.size (Pool.default ())));
      ("ocaml", String Sys.ocaml_version);
      ("seed", Int o.seed);
      ("seconds", Float o.seconds);
      ("requests", Obj [ (r.Runner.workload, Int r.Runner.attempted) ]);
      ("git_head", opt (fun h -> Jsonw.String h) (git_head ()));
      ("trace_overhead_pct", opt (fun x -> Jsonw.Float x) r.Runner.trace_overhead_pct);
      ("speed_ms", Float r.Runner.speed_ms);
    ]

let print_result (r : Runner.result) =
  Fmt.pr "%s%s: %d requests, %d failed; reference kernel %.3f ms (nominal %.1f)@."
    r.Runner.workload
    (if r.Runner.traced then " (traced)" else "")
    r.Runner.attempted r.Runner.failed r.Runner.speed_ms Speed.nominal_ms;
  List.iter (fun f -> Fmt.pr "  FAILED %s@." f) r.Runner.failures;
  List.iter
    (fun (name, (v : Runner.value)) ->
      let unit_ = match Schema.find name with Some m -> m.Schema.unit_ | None -> "" in
      Fmt.pr "  %-30s %14.4f %-6s (n=%d%s)@." name v.Runner.v unit_ v.Runner.samples
        (match List.assoc_opt name r.Runner.raw with
        | Some x when x <> v.Runner.v -> Fmt.str ", raw %.4f" x
        | Some _ | None -> ""))
    r.Runner.metrics

let run_one o name =
  let w = Option.get (Runner.find name) in
  (* the load is this one process, within nproc *)
  Pool.set_default_size (min w.Workload.domains (Domain.recommended_domain_count ()));
  let r =
    if o.trace then begin
      mkdir_p trace_dir;
      let chrome =
        Filename.concat trace_dir (Fmt.str "trace-%s-seed%d.json" name o.seed)
      in
      let r = Runner.traced w ~seed:o.seed ~seconds:o.seconds ~quick:o.quick ~chrome in
      Fmt.pr "chrome trace: %s@." chrome;
      r
    end
    else Runner.end_to_end w ~seed:o.seed ~seconds:o.seconds ~quick:o.quick
  in
  print_result r;
  let fields =
    [
      ("correct", Jsonw.Bool (r.Runner.failed = 0));
      ("attempted", Int r.Runner.attempted);
      ("failed", Int r.Runner.failed);
      ("metrics", metric_json r);
    ]
  in
  Option.iter
    (fun file ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      output_string oc
        (Jsonw.to_string
           (Obj
              ([ ("provenance", provenance o r); ("workload", String name);
                 ("trace", Bool o.trace) ]
              @ fields
              @ [ ("raw", raw_json r) ])));
      output_char oc '\n';
      close_out oc)
    o.out;
  print_endline (Jsonw.to_string (Obj fields))

(* Every workload in a child process of its own, one after another. *)
let run_all o args =
  let results =
    List.map
      (fun name ->
        let argv =
          Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; name ])
        in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let rec lines acc =
          match input_line ic with
          | l -> lines (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        let out = lines [] in
        let status = Unix.close_process_in ic in
        let last = match List.rev out with l :: _ -> l | [] -> "" in
        if not o.quick then
          List.iteri (fun i l -> if i < List.length out - 1 then print_endline l) out;
        match (status, Serve.Protocol.parse last) with
        | Unix.WEXITED 0, Ok j -> (name, j)
        | _ ->
          Fmt.epr "workload %s did not complete@." name;
          exit 1)
      Schema.workload_names
  in
  let int k j = Option.value ~default:0 (Serve.Protocol.int_member k j) in
  let correct =
    List.for_all (fun (_, j) -> Serve.Protocol.bool_member "correct" j = Some true) results
  in
  if o.quick then begin
    (* value-free: pins the workloads, the metric names and units, and
       that no request failed *)
    let expected = if o.trace then Schema.per_layer else Schema.end_to_end in
    List.iter
      (fun (name, j) ->
        let names =
          match Serve.Protocol.member "metrics" j with
          | Some (Serve.Protocol.Obj fields) -> List.map fst fields
          | _ -> []
        in
        Fmt.pr "%s: correct %b, failed %d of %d%s@." name
          (Serve.Protocol.bool_member "correct" j = Some true)
          (int "failed" j) (int "attempted" j)
          (if names = List.map (fun m -> m.Schema.name) expected then ""
           else ", metrics differ from the schema"))
      results;
    List.iter (fun m -> Fmt.pr "  %s %s@." m.Schema.name m.Schema.unit_) expected
  end;
  let total k = List.fold_left (fun a (_, j) -> a + int k j) 0 results in
  let metrics j = Option.value ~default:Jsonw.Null (Serve.Protocol.member "metrics" j) in
  print_endline
    (Jsonw.to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int (total "attempted"));
            ("failed", Int (total "failed"));
            ("workloads", Obj (List.map (fun (n, j) -> (n, metrics j)) results));
          ]))

(* ---- compare ---- *)

let read_runs file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match Serve.Protocol.parse line with
      | Ok j when Serve.Protocol.bool_member "trace" j = Some false -> go (j :: acc)
      | Ok _ | Error _ -> go acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let values runs workload metric =
  List.filter_map
    (fun j ->
      if Serve.Protocol.string_member "workload" j <> Some workload then None
      else
        match Serve.Protocol.member "metrics" j with
        | Some m -> (
          match
            Option.bind (Serve.Protocol.member metric m) (Serve.Protocol.member "value")
          with
          | Some (Serve.Protocol.Float f) -> Some f
          | Some (Serve.Protocol.Int i) -> Some (float_of_int i)
          | _ -> None)
        | None -> None)
    runs

(* Verdict for B against A on one metric, with B's gain (positive when B
   is better). Unresolved: either side's quartile spread exceeds the
   bound. Worse: B loses more than the bound. Better: B gains more than
   A's own spread and wins at least nine of ten index-paired runs. *)
let verdict (m : Schema.metric) a b =
  let bound = Option.value ~default:0. m.Schema.bound in
  let ((q1a, meda, q3a) as qa) = Stats.quartiles a and qb = Stats.quartiles b in
  let spread (q1, med, q3) = (q3 -. q1) /. med in
  let gain x y =
    match m.Schema.better with
    | Schema.Lower -> (x -. y) /. x
    | Schema.Higher -> (y -. x) /. x
  in
  let (_, medb, _) = qb in
  let g = gain meda medb in
  let n = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let wins =
    List.combine (first a) (first b)
    |> List.filter (fun (x, y) -> gain x y > 0.)
    |> List.length
  in
  let v =
    if spread qa > bound || spread qb > bound then "unresolved"
    else if g < -.bound then "worse"
    else if g > (q3a -. q1a) /. meda && 10 * wins >= 9 * n then "better"
    else "same"
  in
  (qa, qb, g, v)

let compare_files fa fb =
  let ra = read_runs fa and rb = read_runs fb in
  let worse = ref 0 in
  Fmt.pr "%-16s %-15s %28s %28s %8s %6s  %s@." "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B gain" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Schema.metric) ->
          match (values ra w m.Schema.name, values rb w m.Schema.name) with
          | [], _ | _, [] -> ()
          | a, b ->
            let (q1a, ma, q3a), (q1b, mb, q3b), g, v = verdict m a b in
            if v = "worse" then incr worse;
            Fmt.pr
              "%-16s %-15s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.2f%% \
               %5.0f%%  %s (n=%d/%d)@."
              w m.Schema.name ma q1a q3a mb q1b q3b (100. *. g)
              (100. *. Option.value ~default:0. m.Schema.bound)
              v (List.length a) (List.length b))
        Schema.end_to_end)
    Schema.workload_names;
  if !worse > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "schema" ] -> print_string (Schema.render ())
  | [ "compare"; a; b ] -> compare_files a b
  | args -> (
    let o = parse_opts args in
    match o.workload with
    | Some name -> run_one o name
    | None -> run_all o args)
