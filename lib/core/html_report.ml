(* Standalone HTML report (in the spirit of clang's scan-build): a
   self-contained page with the run summary, the warnings grouped by
   category, and the analyzed program with warning lines highlighted.
   No external assets; inline CSS only. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let css =
  {|
  body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
         max-width: 70em; color: #1a1a2e; line-height: 1.45; }
  h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3em; }
  .cards { display: flex; gap: 1em; flex-wrap: wrap; margin: 1em 0; }
  .card { border: 1px solid #c9cbd8; border-radius: 8px; padding: .8em 1.2em;
          min-width: 9em; background: #f7f7fb; }
  .card .num { font-size: 1.8em; font-weight: 700; }
  .card.bad .num { color: #b3003c; }
  .card.warn .num { color: #b36b00; }
  .card.ok .num { color: #1f7a4d; }
  table { border-collapse: collapse; width: 100%; margin: 1em 0; }
  th, td { border: 1px solid #d6d7e3; padding: .4em .7em; text-align: left;
           vertical-align: top; }
  th { background: #ececf4; }
  tr.violation td:first-child { border-left: 4px solid #b3003c; }
  tr.performance td:first-child { border-left: 4px solid #b36b00; }
  .rule { font-family: monospace; white-space: nowrap; }
  .loc { font-family: monospace; white-space: nowrap; }
  .origin { font-size: .85em; color: #4a4e69; }
  pre.listing { background: #14141f; color: #e8e8f0; padding: 1em;
                border-radius: 8px; overflow-x: auto; font-size: .9em; }
  pre.listing .hit { background: #5c1a2e; display: inline-block; width: 100%; }
  pre.listing .ln { color: #6c6f93; user-select: none; }
  footer { margin-top: 2em; color: #6c6f93; font-size: .85em; }
  details.witness { margin-top: .4em; }
  details.witness summary { cursor: pointer; font-size: .85em; color: #4a4e69; }
  details.witness pre { background: #f1f1f7; padding: .6em; border-radius: 6px;
                        font-size: .85em; overflow-x: auto; }
|}

let category_class (w : Analysis.Warning.t) =
  match Analysis.Warning.category w with
  | Analysis.Warning.Model_violation -> "violation"
  | Analysis.Warning.Performance -> "performance"

(* The warning's evidence, when the run captured witnesses: a collapsed
   block with the bundle key, witness fingerprint and the rendered
   witness body (event slice / shadow transition / genome / image). *)
let render_witness (w : Analysis.Warning.t) =
  match w.Analysis.Warning.witness with
  | None -> ""
  | Some wit ->
    Fmt.str
      "<details class=\"witness\"><summary>%s witness <span \
       class=\"origin\">(bundle %s, fingerprint %s)</span></summary>\
       <pre>%s</pre></details>"
      (escape (Analysis.Witness.tier wit))
      (escape (Analysis.Warning.bundle_fingerprint w))
      (escape (Analysis.Witness.fingerprint wit))
      (escape (Fmt.str "%a" Analysis.Witness.pp wit))

let render_warning buf (w : Analysis.Warning.t) =
  Buffer.add_string buf
    (Fmt.str
       "<tr class=\"%s\"><td class=\"rule\">%s</td><td class=\"loc\">%s</td>\
        <td>%s</td><td>%s <span class=\"origin\">(%s, %s)</span>%s</td></tr>\n"
       (category_class w)
       (escape (Analysis.Warning.rule_name w.Analysis.Warning.rule))
       (escape (Nvmir.Loc.to_string w.Analysis.Warning.loc))
       (escape w.Analysis.Warning.fname)
       (escape w.Analysis.Warning.message)
       (match Analysis.Warning.category w with
       | Analysis.Warning.Model_violation -> "model violation"
       | Analysis.Warning.Performance -> "performance")
       (match w.Analysis.Warning.origin with
       | Analysis.Warning.Static -> "static"
       | Analysis.Warning.Dynamic -> "dynamic")
       (render_witness w))

(* The analyzed program, with every line that carries a warning location
   highlighted. The listing is the canonical pretty-printed IR; warning
   locations are matched against the '@ file:line' annotations on each
   printed line. *)
let render_listing buf prog (warnings : Analysis.Warning.t list) =
  let hot =
    List.map
      (fun (w : Analysis.Warning.t) -> Nvmir.Loc.to_string w.Analysis.Warning.loc)
      warnings
  in
  let text = Fmt.str "%a" Nvmir.Prog.pp prog in
  Buffer.add_string buf "<h2>Program</h2>\n<pre class=\"listing\">\n";
  List.iteri
    (fun i line ->
      let is_hot = List.exists (fun l -> l <> "" &&
        (let needle = "@ " ^ l in
         let nh = String.length line and nn = String.length needle in
         let rec go j = j + nn <= nh && (String.sub line j nn = needle || go (j + 1)) in
         nn > 0 && go 0)) hot
      in
      let body =
        Fmt.str "<span class=\"ln\">%4d</span>  %s" (i + 1) (escape line)
      in
      if is_hot then
        Buffer.add_string buf (Fmt.str "<span class=\"hit\">%s</span>\n" body)
      else Buffer.add_string buf (body ^ "\n"))
    (String.split_on_char '\n' text);
  Buffer.add_string buf "</pre>\n"

let render ?(title = "DeepMC report") prog (report : Driver.report) : string =
  let buf = Buffer.create 8192 in
  let violations = Driver.violations report in
  let perf = Driver.performance_bugs report in
  Buffer.add_string buf
    (Fmt.str
       "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\
        <title>%s</title><style>%s</style></head><body>\n<h1>%s</h1>\n"
       (escape title) css (escape title));
  Buffer.add_string buf
    (Fmt.str
       "<p>Checked against the <b>%s</b> persistency model; static analysis \
        %.1f ms (%d traces, %d events), dynamic %s.</p>\n"
       (escape (Analysis.Model.to_string report.Driver.model))
       (report.Driver.elapsed_static *. 1000.)
       report.Driver.static.Analysis.Checker.trace_count
       report.Driver.static.Analysis.Checker.event_count
       (match report.Driver.dynamic with
       | Driver.Dynamic_ok s ->
         Fmt.str "ran (%s)" (escape (Fmt.str "%a" Runtime.Dynamic.pp_summary s))
       | Driver.Dynamic_skipped r -> (
         match report.Driver.dynamic_warnings with
         | [] -> Fmt.str "skipped (%s)" (escape r)
         | ws ->
           Fmt.str "stopped (%s) after %d warning(s)" (escape r)
             (List.length ws))));
  let card cls label n =
    Fmt.str
      "<div class=\"card %s\"><div class=\"num\">%d</div><div>%s</div></div>\n"
      cls n label
  in
  Buffer.add_string buf "<div class=\"cards\">\n";
  Buffer.add_string buf
    (card
       (if report.Driver.warnings = [] then "ok" else "warn")
       "warnings"
       (List.length report.Driver.warnings));
  Buffer.add_string buf
    (card (if violations = [] then "ok" else "bad") "model violations"
       (List.length violations));
  Buffer.add_string buf
    (card (if perf = [] then "ok" else "warn") "performance bugs"
       (List.length perf));
  Buffer.add_string buf "</div>\n";
  if report.Driver.warnings <> [] then begin
    Buffer.add_string buf
      "<h2>Warnings</h2>\n<table>\n<tr><th>rule</th><th>location</th>\
       <th>function</th><th>detail</th></tr>\n";
    List.iter (render_warning buf) report.Driver.warnings;
    Buffer.add_string buf "</table>\n"
  end
  else Buffer.add_string buf "<p>No warnings: the program implements its persistency model.</p>\n";
  render_listing buf prog report.Driver.warnings;
  (* Telemetry instruments, when the run was traced (--metrics-json /
     --trace-out turn the registry on); invisible otherwise. *)
  (match Obs.Metrics.snapshot () with
  | [] -> ()
  | samples ->
    Buffer.add_string buf
      "<h2>Telemetry</h2>\n<table>\n<tr><th>instrument</th><th>value</th></tr>\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf
          (Fmt.str "<tr><td><code>%s</code></td><td>%s</td></tr>\n"
             (escape name)
             (escape (Fmt.str "%a" Obs.Metrics.pp_value v))))
      samples;
    Buffer.add_string buf "</table>\n");
  Buffer.add_string buf
    "<footer>Generated by DeepMC — deep memory persistency bug detection \
     (PPoPP'22 reproduction).</footer>\n</body></html>\n";
  Buffer.contents buf

let write ?title prog report path =
  let oc = open_out path in
  output_string oc (render ?title prog report);
  close_out oc
