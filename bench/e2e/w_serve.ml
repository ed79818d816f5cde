(* serve-edit: one editor-like client sends check requests, one JSON line
   at a time, to a resident [Serve.Daemon]. The programs are the 18
   corpus bases (made warning-clean) and 6 small synth programs checked
   from their default root. Each request picks a program at random; 30%
   of the time (when the program admits one) it first replaces the
   program with a single-site [Inject.Mutation] edit of its base, and
   otherwise it resubmits the program's current text unchanged. An edit
   also appends a comment naming the request, so that, as in an editor,
   every edit sends text the daemon has never seen; the comment sits
   after the last function, shifting no line.

   Ground truth: every response is "ok", and its warnings are
   byte-identical to a cold [Checker.check] of the same text. The cold
   checks run after the timed loop, on the first [samples_per_program]
   edits of each program. *)

module P = Serve.Protocol

let edit_share = 0.3
let samples_per_program = 8
let synth_programs = 6

type base = {
  name : string;
  model : Analysis.Model.t;
  text : string;
  mutants : string array;
}

let text_of prog = Fmt.str "%a" Nvmir.Prog.pp prog

let base_of ~name ~model prog =
  let mutants =
    Inject.Mutation.mutate ~base:name ~model
      ~roots:(Analysis.Trace.default_roots prog) prog
  in
  {
    name;
    model;
    text = text_of prog;
    mutants =
      Array.of_list
        (List.map (fun (m : Inject.Mutation.mutant) -> text_of m.prog) mutants);
  }

(* Clean synth programs of 10-14 functions, one from each stratum of a
   band of estimated checking cost from main, as in the synth
   workloads. *)
let synth_spec =
  {
    W_synth.salt = 0x53;
    nfuncs = (10, 14);
    buggy_pct = 0;
    ptr_arith_every = None;
    driver_roots = false;
    band = (2e6, 8e6);
    strata = synth_programs;
  }

let bases ~seed =
  let rng = Workload.rng ~seed synth_spec.W_synth.salt in
  let corpus =
    List.map
      (fun (b : Inject.Evaluate.base) ->
        base_of ~name:b.Inject.Evaluate.bname ~model:b.Inject.Evaluate.model
          b.Inject.Evaluate.prog)
      (Inject.Evaluate.corpus_bases ())
  in
  let synth =
    List.init synth_programs (fun k ->
        let p = W_synth.draw synth_spec rng k in
        base_of ~name:(Fmt.str "synth%d" k) ~model:Analysis.Model.Strict
          p.W_synth.prog)
  in
  Array.of_list (corpus @ synth)

let request_line ~id (b : base) text =
  P.to_line
    (P.Obj
       [
         ("cmd", P.String "check");
         ("id", P.Int id);
         ("name", P.String b.name);
         ("model", P.String (Analysis.Model.to_string b.model));
         ("program", P.String text);
       ])

(* Traced: [Daemon.handle_line] as its three layer calls on the same
   daemon. The cache level and root counts are read from the reply. *)
let handle_traced daemon line =
  match Tracer.with_ "Protocol.parse" (fun () -> P.parse line) with
  | Error msg -> P.to_line (P.error_response msg)
  | Ok req ->
    let t0 = Tracer.now () in
    let reply =
      Tracer.with_ "Daemon.handle" (fun () ->
          match Serve.Daemon.handle daemon req with `Reply j | `Quit j -> j)
    in
    let dt = Int64.to_float (Int64.sub (Tracer.now ()) t0) in
    let count k =
      match P.member k reply with
      | Some (P.List l) -> float_of_int (List.length l)
      | Some (P.Int n) -> float_of_int n
      | _ -> 0.
    in
    Option.iter
      (fun level ->
        Layers.add ("serve.cache_check_ns." ^ level) dt;
        Layers.add ("serve.cache_checks." ^ level) 1.)
      (P.string_member "cache" reply);
    Layers.add "serve.roots_reused" (count "roots_reused");
    Layers.add "serve.roots_rechecked" (count "roots_rechecked");
    Layers.add "serve.functions_invalidated" (count "functions_invalidated");
    Tracer.with_ "Protocol.to_line" (fun () -> P.to_line reply)

(* Replayed after an edit, outside its request: the parse, DSG build and
   fingerprinting that [Cache.check] performs inside. *)
let edit_probe (b : base) text =
  Tracer.with_ "probe" (fun () ->
      let prog =
        Tracer.with_ "Parser.parse" (fun () ->
            Nvmir.Parser.parse ~file:b.name text)
      in
      Layers.add "nvmir.bytes" (float_of_int (String.length text));
      let dsg = Tracer.with_ "Dsg.build" (fun () -> Dsa.Dsg.build prog) in
      ignore
        (Tracer.with_ "Fingerprint.build" (fun () ->
             Analysis.Fingerprint.build dsg prog)))

let cold_warnings (b : base) text =
  let prog = Nvmir.Parser.parse ~file:b.name text in
  let r = Analysis.Checker.check ~model:b.model prog in
  P.to_line
    (P.List (List.map Deepmc.Json_report.of_warning r.Analysis.Checker.warnings))

let setup ~seed ~traced =
  let bases = bases ~seed in
  let n = Array.length bases in
  let daemon = Serve.Daemon.create () in
  let handle line =
    if traced then handle_traced daemon line
    else
      match Serve.Daemon.handle_line daemon line with
      | `Reply s | `Quit s -> s
  in
  (* priming: the first sight of every program is a cold check *)
  Array.iter (fun b -> ignore (handle (request_line ~id:0 b b.text))) bases;
  let rng = Workload.rng ~seed 0x5E in
  (* each program's current text, and the request that last edited it *)
  let current = Array.map (fun b -> (b.text, -1)) bases in
  let per_program = Array.make n 0 in
  let samples = ref [] in
  let run i =
    let k = Random.State.int rng n in
    let b = bases.(k) in
    let edit =
      Array.length b.mutants > 0 && Random.State.float rng 1. < edit_share
    in
    if edit then begin
      let m = b.mutants.(Random.State.int rng (Array.length b.mutants)) in
      current.(k) <- (m ^ Fmt.str "# edit %d\n" i, i)
    end;
    let text, edited_by = current.(k) in
    let line = request_line ~id:i b text in
    let r = Workload.timed ~traced i (fun () -> handle line) in
    if traced && edit then edit_probe b text;
    let input =
      if edited_by < 0 then b.name else Fmt.str "%s/edit%d" b.name edited_by
    in
    Workload.outcome
      ~kind:(if edit then "edit" else "hit")
      ~input r
      (fun reply ->
        match P.parse reply with
        | Error e -> [ "unparseable response: " ^ e ]
        | Ok j -> (
          match (P.string_member "status" j, P.member "warnings" j) with
          | Some "ok", Some ws ->
            if edit && per_program.(k) < samples_per_program then begin
              per_program.(k) <- per_program.(k) + 1;
              samples := (i, b, text, P.to_line ws) :: !samples
            end;
            []
          | _ -> [ "error response: " ^ reply ]))
  in
  let verify () =
    List.filter_map
      (fun (i, b, text, got) ->
        if String.equal got (cold_warnings b text) then None
        else Some (i, b.name ^ ": warnings differ from a cold check"))
      (List.rev !samples)
  in
  { Workload.run; verify }

let workload = { Workload.name = "serve-edit"; domains = 1; setup }
