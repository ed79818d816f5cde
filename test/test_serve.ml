(* The resident analyzer (lib/serve): wire-protocol round-trips, the
   two-level cache's invalidation discipline (a one-function edit
   re-checks that function's memo-dependent callers and nothing else),
   worker parking, and the QCheck differential that pins the headline
   guarantee — a warm incremental re-check produces warnings
   byte-identical to a cold [Checker.check] of the same text. *)

module E = Inject.Evaluate
module P = Serve.Protocol

let tc = Alcotest.test_case
let check = Alcotest.check
let text_of prog = Fmt.str "%a" Nvmir.Prog.pp prog
let render w = Fmt.str "%a" Analysis.Warning.pp w

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_roundtrip () =
  let j =
    P.Obj
      [
        ("id", P.Int 7);
        ("neg", P.Int (-3));
        ("f", P.Float 1.5);
        ("s", P.String "line\nquote\"back\\slash\ttab");
        ("l", P.List [ P.Bool true; P.Bool false; P.Null; P.String "" ]);
        ("o", P.Obj []);
        ("e", P.List []);
      ]
  in
  match P.parse (P.to_line j) with
  | Ok j' -> check Alcotest.bool "round-trip preserves structure" true (j = j')
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e)

let test_protocol_unicode () =
  (* clients that escape non-ASCII (python json.dumps) must round-trip
     through the daemon: BMP \u escapes decode to UTF-8 bytes *)
  (match P.parse "{\"s\":\"a\\u2014b\",\"nul\":\"\\u0000x\"}" with
  | Ok j ->
    check (Alcotest.option Alcotest.string) "em dash decodes"
      (Some "a\xe2\x80\x94b") (P.string_member "s" j);
    check (Alcotest.option Alcotest.string) "NUL decodes" (Some "\x00x")
      (P.string_member "nul" j)
  | Error e -> Alcotest.fail ("unicode parse failed: " ^ e));
  match P.parse "{\"s\":\"\\ud83d\\ude00\"}" with
  | Ok _ -> Alcotest.fail "surrogate pair must be rejected, not mis-encoded"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Directed invalidation: main -> helper -> leaf, plus the unrelated
   root [iso].  Editing [leaf]'s body must invalidate exactly [leaf]
   and re-check exactly the root whose call-graph closure contains it
   ([main]); [iso]'s cached result replays untouched. *)

let inv_src store_val =
  (* Printf, not Fmt: the NVMIR loc syntax's '@' would read as Format
     directives *)
  Printf.sprintf
    {|
struct rec_t { a: int, b: int }

func leaf(p: ptr rec_t) {
entry:
  store p->a, %d     @ inv.c:11
  flush exact p->a   @ inv.c:12
  fence              @ inv.c:13
  ret
}

func helper(p: ptr rec_t) {
entry:
  call leaf(p)       @ inv.c:21
  ret
}

func main() {
entry:
  p = alloc pmem rec_t
  call helper(p)     @ inv.c:31
  ret
}

func iso() {
entry:
  q = alloc pmem rec_t
  store q->b, 2      @ inv.c:41
  flush exact q->b   @ inv.c:42
  fence              @ inv.c:43
  ret
}
|}
    store_val

let sorted = List.sort String.compare

let test_edit_invalidates_dependents () =
  let cache = Serve.Cache.create () in
  let params = Serve.Cache.default_params Analysis.Model.Strict in
  let run text =
    match Serve.Cache.check cache ~name:"inv.nvmir" ~params ~text with
    | Ok o -> o
    | Error e -> Alcotest.fail ("check failed: " ^ e)
  in
  let o1 = run (inv_src 1) in
  check Alcotest.string "first sight is a miss" "miss"
    (Serve.Cache.cache_level_name o1.Serve.Cache.level);
  check (Alcotest.list Alcotest.string) "first sight invalidates everything"
    [ "helper"; "iso"; "leaf"; "main" ]
    (sorted o1.Serve.Cache.invalidated);
  check (Alcotest.list Alcotest.string) "both roots checked cold"
    [ "iso"; "main" ]
    (sorted o1.Serve.Cache.stale);
  let o2 = run (inv_src 1) in
  check Alcotest.string "byte-identical resubmission hits level A" "hit"
    (Serve.Cache.cache_level_name o2.Serve.Cache.level);
  (* the edit, observed through the serve instruments *)
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  let o3 = run (inv_src 2) in
  Obs.set_enabled false;
  check Alcotest.string "one-function edit is a partial hit" "partial"
    (Serve.Cache.cache_level_name o3.Serve.Cache.level);
  check (Alcotest.list Alcotest.string) "only the edited function invalidated"
    [ "leaf" ] o3.Serve.Cache.invalidated;
  check (Alcotest.list Alcotest.string)
    "only the memo-dependent caller root re-checked" [ "main" ]
    o3.Serve.Cache.stale;
  check (Alcotest.list Alcotest.string) "the unrelated root replays" [ "iso" ]
    o3.Serve.Cache.reused;
  let s = Obs.Metrics.snapshot () in
  (match Obs.Metrics.find s "serve.functions_invalidated" with
  | Some (Obs.Metrics.Level n) ->
    check Alcotest.int "invalidation gauge counts the edit" 1 n
  | _ -> Alcotest.fail "serve.functions_invalidated missing");
  (match Obs.Metrics.find s "serve.roots_reused" with
  | Some (Obs.Metrics.Count n) ->
    check Alcotest.int "one root replayed" 1 n
  | _ -> Alcotest.fail "serve.roots_reused missing");
  Obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Cache bounds and keys *)

(* [inv_src] plus a root with an unflushed store, so the compared
   warning lists are not empty *)
let warn_src store_val =
  inv_src store_val
  ^ {|
func bug() {
entry:
  r = alloc pmem rec_t
  store r->a, 1      @ bug.c:1
  ret
}
|}

let cold_render ?config ~name text =
  List.map render
    (Analysis.Checker.check ?config ~model:Analysis.Model.Strict
       (Nvmir.Parser.parse ~file:name text))
      .Analysis.Checker.warnings

let cache_run cache ~name ~params text =
  match Serve.Cache.check cache ~name ~params ~text with
  | Ok o -> o
  | Error e -> Alcotest.fail ("check failed: " ^ e)

(* The level-B slot table obeys [max_request_entries] as level A does:
   with room for one slot, checking B drops A's slot, so an edit of A
   is a cold miss — and still byte-identical to a cold check. *)
let test_slot_table_bounded () =
  let cache = Serve.Cache.create ~max_request_entries:1 () in
  let params = Serve.Cache.default_params Analysis.Model.Strict in
  let run ~name text = cache_run cache ~name ~params text in
  ignore (run ~name:"a.nvmir" (warn_src 1));
  ignore (run ~name:"b.nvmir" (warn_src 5));
  let o = run ~name:"a.nvmir" (warn_src 2) in
  check Alcotest.string "A's slot was dropped" "miss"
    (Serve.Cache.cache_level_name o.Serve.Cache.level);
  check (Alcotest.list Alcotest.string) "warnings equal a cold check"
    (cold_render ~name:"a.nvmir" (warn_src 2))
    (List.map render o.Serve.Cache.summary.Serve.Cache.sm_warnings)

(* Every [Config.t] field is part of the cache key: a text cached under
   the default record is never a level-A hit under a record differing in
   one field, and the answer equals a cold check under that record. *)
let test_cache_key_covers_config () =
  let d = Analysis.Config.default in
  let variants =
    [
      ("loop_bound", { d with loop_bound = 1 });
      ("recursion_bound", { d with recursion_bound = 1 });
      ("max_paths", { d with max_paths = 1 });
      ("expansion_fanout", { d with expansion_fanout = 1 });
      ("field_sensitive", { d with field_sensitive = false });
      ("offset_sensitive", { d with offset_sensitive = false });
      ("persistent_roots", { d with persistent_roots = [ ("leaf", "p") ] });
    ]
  in
  let cache = Serve.Cache.create () in
  let text = warn_src 1 in
  let run config =
    cache_run cache ~name:"k.nvmir"
      ~params:(Serve.Cache.default_params ~config Analysis.Model.Strict)
      text
  in
  ignore (run d);
  check Alcotest.string "default record replays" "hit"
    (Serve.Cache.cache_level_name (run d).Serve.Cache.level);
  List.iter
    (fun (field, config) ->
      let o = run config in
      check Alcotest.bool (field ^ ": not a level-A hit") true
        (o.Serve.Cache.level <> Serve.Cache.Hit);
      check (Alcotest.list Alcotest.string) (field ^ ": equals a cold check")
        (cold_render ~config ~name:"k.nvmir" text)
        (List.map render o.Serve.Cache.summary.Serve.Cache.sm_warnings))
    variants

(* ------------------------------------------------------------------ *)
(* Raw request memo (crash-explore / inject requests) *)

let test_memo_replays () =
  let m = Serve.Cache.memo_create () in
  let computed = ref 0 in
  let compute () =
    incr computed;
    "payload"
  in
  let v1, l1 = Serve.Cache.memo_find m ~key:"k" ~compute in
  let v2, l2 = Serve.Cache.memo_find m ~key:"k" ~compute in
  check Alcotest.string "first value" "payload" v1;
  check Alcotest.string "replayed value" "payload" v2;
  check Alcotest.string "first is a miss" "miss" (Serve.Cache.cache_level_name l1);
  check Alcotest.string "second is a hit" "hit" (Serve.Cache.cache_level_name l2);
  check Alcotest.int "computed exactly once" 1 !computed

(* ------------------------------------------------------------------ *)
(* Worker parking: between requests a resident daemon's workers sit in
   a blocking wait, observable as parks, and [quiesce] returns only at
   full idleness.  A 2-domain pool makes this deterministic even on a
   single-core host (the default pool keeps zero workers there). *)

let test_pool_parks_and_wakes () =
  let p = Pool.create ~size:2 () in
  let sq = Pool.map p (fun x -> x * x) [ 1; 2; 3; 4 ] in
  check (Alcotest.list Alcotest.int) "map" [ 1; 4; 9; 16 ] sq;
  Pool.quiesce p;
  let parks pool =
    List.fold_left
      (fun acc (w : Pool.worker_stat) -> acc + w.Pool.parks)
      0 (Pool.worker_stats pool)
  in
  let p1 = parks p in
  check Alcotest.bool "worker parked after draining" true (p1 >= 1);
  Pool.wake p;
  let cu = Pool.map p (fun x -> x * x * x) [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "map after wake" [ 1; 8; 27 ] cu;
  Pool.quiesce p;
  (* quiesce can return while a tiny map's work was drained entirely by
     the submitting domain, so only monotonicity is deterministic *)
  check Alcotest.bool "park count is monotone" true (parks p >= p1);
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* The headline differential: a random clean program plus one random
   single-site mutation; the warm path (base primed, mutant re-checked
   through the incremental cache) must produce warnings byte-identical
   to a cold [Checker.check] of the mutant text, and agree on the
   trace/event counts. *)

(* Prime a fresh cache with base [b]'s clean text, re-check [text]
   through it, and check [text] cold: rendered warnings, trace count and
   event count of the warm and the cold answer. *)
let warm_and_cold (b : E.base) text =
  let cache = Serve.Cache.create () in
  let params = Serve.Cache.default_params b.E.model in
  ignore (cache_run cache ~name:b.E.bname ~params (text_of b.E.prog));
  let w = (cache_run cache ~name:b.E.bname ~params text).Serve.Cache.summary in
  let c =
    Analysis.Checker.check ~model:b.E.model
      (Nvmir.Parser.parse ~file:b.E.bname text)
  in
  ( ( List.map render w.Serve.Cache.sm_warnings,
      w.Serve.Cache.sm_trace_count,
      w.Serve.Cache.sm_event_count ),
    ( List.map render c.Analysis.Checker.warnings,
      c.Analysis.Checker.trace_count,
      c.Analysis.Checker.event_count ) )

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"incremental re-check byte-identical to cold check"
    ~count:10
    QCheck.(map abs int)
    (fun seed ->
      match E.synth_bases ~seed:(1 + (seed mod 997)) ~count:1 ~nfuncs:16 () with
      | [ b ] -> (
        let mutants =
          Inject.Mutation.mutate ~base:b.E.bname ~model:b.E.model
            ~roots:b.E.roots b.E.prog
        in
        match mutants with
        | [] -> true (* no sound injection site: nothing to differentiate *)
        | ms ->
          let m = List.nth ms (seed mod List.length ms) in
          let ((ws, _, _) as warm), ((cs, _, _) as cold) =
            warm_and_cold b (text_of m.Inject.Mutation.prog)
          in
          if not (List.equal String.equal ws cs) then
            QCheck.Test.fail_reportf
              "warnings diverge on %s (seed %d):@.warm:@.%a@.cold:@.%a"
              m.Inject.Mutation.id seed
              Fmt.(list ~sep:cut string)
              ws
              Fmt.(list ~sep:cut string)
              cs
          else warm = cold)
      | _ -> true)

(* The same differential, deterministic over every corpus base: re-check
   the base's first injection mutant, or its clean text when it admits
   none. *)
let test_warm_equals_cold_corpus () =
  let bases = E.corpus_bases () in
  check Alcotest.bool "corpus bases found" true (List.length bases >= 18);
  let mutated = ref 0 in
  List.iter
    (fun (b : E.base) ->
      let id, text =
        match
          Inject.Mutation.mutate ~base:b.E.bname ~model:b.E.model
            ~roots:b.E.roots b.E.prog
        with
        | [] -> (b.E.bname, text_of b.E.prog)
        | m :: _ ->
          incr mutated;
          (m.Inject.Mutation.id, text_of m.Inject.Mutation.prog)
      in
      let warm, cold = warm_and_cold b text in
      check
        Alcotest.(triple (list string) int int)
        (id ^ ": warnings, traces, events")
        cold warm)
    bases;
  check Alcotest.bool "most bases re-checked a mutant" true
    (2 * !mutated > List.length bases)

(* ------------------------------------------------------------------ *)
(* Hostile input: random bytes and byte-mutated well-formed request
   lines parse to [Ok] or [Error], never an exception. *)

let request_lines =
  [
    {|{"cmd":"check","name":"t.nvmir","model":"strict","program":"struct r { a: int }\nfunc main() {\nentry:\n  p = alloc pmem r\n  store p->a, 1 @ m.c:10\n  ret\n}\n"}|};
    {|{"cmd":"stats"}|};
    {|{"cmd":"shutdown"}|};
    {|{"n":-12,"f":1.5e-3,"l":[true,false,null,"\u2014",{}],"o":{"k":[]}}|};
  ]

let prop_protocol_never_raises =
  QCheck.Test.make ~name:"protocol: hostile lines never raise"
    ~count:2000
    (Test_parser.hostile_text request_lines)
    (fun line ->
      match P.parse line with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite =
  [
    tc "protocol: compact encode/parse round-trip" `Quick
      test_protocol_roundtrip;
    tc "protocol: BMP \\u escapes decode, surrogates rejected" `Quick
      test_protocol_unicode;
    tc "cache: edit invalidates the function and its dependent root only"
      `Quick test_edit_invalidates_dependents;
    tc "cache: raw memo replays byte-identical payloads" `Quick
      test_memo_replays;
    tc "cache: level-B slots are bounded" `Quick test_slot_table_bounded;
    tc "cache: key covers every Config field" `Quick
      test_cache_key_covers_config;
    tc "pool: idle workers park and wake for new work" `Quick
      test_pool_parks_and_wakes;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    tc "cache: warm equals cold on every corpus base" `Quick
      test_warm_equals_cold_corpus;
    QCheck_alcotest.to_alcotest prop_protocol_never_raises;
  ]
