(* Tests for trace collection: path enumeration, bounds, persistent-op
   filtering, and interprocedural merging. *)

let tc = Alcotest.test_case
let check = Alcotest.check

let collect ?(config = Analysis.Config.default) ?roots src =
  let prog = Nvmir.Parser.parse src in
  let dsg = Dsa.Dsg.build prog in
  Analysis.Trace.collect ~config ?roots dsg prog

let traces_of ?config ?roots src name =
  match List.assoc_opt name (collect ?config ?roots src) with
  | Some ts -> ts
  | None -> Alcotest.fail ("no traces for root " ^ name)

let kinds trace =
  List.filter_map
    (fun (e : Analysis.Event.t) ->
      match e.Analysis.Event.kind with
      | Analysis.Event.Write _ -> Some "W"
      | Analysis.Event.Flush _ -> Some "F"
      | Analysis.Event.Fence -> Some "B"
      | Analysis.Event.Log _ -> Some "L"
      | Analysis.Event.Tx_begin -> Some "T{"
      | Analysis.Event.Tx_end -> Some "}T"
      | _ -> None)
    trace

let test_straightline_trace () =
  let ts =
    traces_of
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  store p->f, 1
  flush exact p->f
  fence
  ret
}
|}
      "main"
  in
  check Alcotest.int "one trace" 1 (List.length ts);
  check Alcotest.(list string) "event kinds" [ "W"; "F"; "B" ]
    (kinds (List.hd ts))

let test_volatile_ops_filtered () =
  let ts =
    traces_of
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc vmem s
  store p->f, 1
  flush exact p->f
  fence
  ret
}
|}
      "main"
  in
  (* volatile writes and flushes are dropped; the bare fence remains *)
  check Alcotest.(list string) "only the fence survives" [ "B" ]
    (kinds (List.hd ts))

let test_branch_paths () =
  let ts =
    traces_of
      {|
struct s { f: int, g: int }
func main(n: int) {
entry:
  p = alloc pmem s
  c = n > 0
  br c, yes, no
yes:
  store p->f, 1
  br fin
no:
  store p->g, 2
  br fin
fin:
  persist object p
  ret
}
|}
      "main"
  in
  check Alcotest.int "two paths" 2 (List.length ts)

let test_loop_bound () =
  let config = { Analysis.Config.default with Analysis.Config.loop_bound = 3 } in
  let ts =
    traces_of ~config
      {|
struct s { f: int, g: int }
func main() {
entry:
  p = alloc pmem s
  i = 0
  br loop
loop:
  store p->f, i
  persist exact p->f
  i = i + 1
  c = i < 100
  br c, loop, fin
fin:
  ret
}
|}
      "main"
  in
  (* the back edge is taken at most loop_bound times: paths with 1..4
     iterations are enumerated *)
  check Alcotest.int "bounded paths" 4 (List.length ts);
  let max_writes =
    List.fold_left
      (fun acc t ->
        max acc (List.length (List.filter (String.equal "W") (kinds t))))
      0 ts
  in
  check Alcotest.int "at most loop_bound+1 writes" 4 max_writes

let call_src =
  {|
struct s { f: int, g: int }
func callee(p: ptr s) {
entry:
  store p->f, 1
  flush exact p->f
  fence
  ret
}
func main() {
entry:
  p = alloc pmem s
  call callee(p)
  store p->g, 2
  persist exact p->g
  ret
}
|}

let test_interprocedural_merge () =
  let ts = traces_of call_src "main" in
  check Alcotest.int "one merged trace" 1 (List.length ts);
  check Alcotest.(list string) "callee spliced before caller tail"
    [ "W"; "F"; "B"; "W"; "F"; "B" ]
    (kinds (List.hd ts));
  (* provenance markers are kept *)
  let t = List.hd ts in
  check Alcotest.bool "call mark present" true
    (List.exists
       (fun (e : Analysis.Event.t) ->
         match e.Analysis.Event.kind with
         | Analysis.Event.Call_mark "callee" -> true
         | _ -> false)
       t);
  check Alcotest.bool "ret mark present" true
    (List.exists
       (fun (e : Analysis.Event.t) ->
         match e.Analysis.Event.kind with
         | Analysis.Event.Ret_mark "callee" -> true
         | _ -> false)
       t)

(* A self-recursive function whose recursion depth depends on data:
   only the recursion bound stops its expansion. *)
let recursion_src =
  {|
struct s { f: int, g: int }
func rec_f(p: ptr s, n: int) {
entry:
  store p->f, n
  persist exact p->f
  m = n - 1
  c = m > 0
  br c, again, fin
again:
  call rec_f(p, m)
  br fin
fin:
  ret
}
func main() {
entry:
  p = alloc pmem s
  call rec_f(p, 100)
  ret
}
|}

let test_recursion_bounded () =
  let src = recursion_src
  in
  (* must terminate and produce bounded traces *)
  let ts = traces_of src "main" in
  check Alcotest.bool "some traces" true (ts <> []);
  check Alcotest.bool "bounded count" true
    (List.length ts <= Analysis.Config.default.Analysis.Config.max_paths)

let test_max_paths_cap () =
  (* 2^10 paths from 10 sequential branches, capped at max_paths *)
  let blocks =
    String.concat "\n"
      (List.init 10 (fun i ->
           Fmt.str
             "b%d:\n  c%d = n > %d\n  br c%d, t%d, f%d\nt%d:\n  br b%d\nf%d:\n  br b%d"
             i i i i i i i (i + 1) i (i + 1)))
  in
  let src =
    Fmt.str
      {|
struct s { f: int, g: int }
func main(n: int) {
entry:
  p = alloc pmem s
  br b0
%s
b10:
  persist object p
  ret
}
|}
      blocks
  in
  let config = { Analysis.Config.default with Analysis.Config.max_paths = 16 } in
  let ts = traces_of ~config src "main" in
  check Alcotest.int "capped" 16 (List.length ts)

(* A callee with five paths, one per field written, in DFS order a..e
   (each branch's then side returns first). *)
let five_path_src ~calls =
  Fmt.str
    {|
struct s { a: int, b: int, c: int, d: int, e: int }
func callee(p: ptr s, n: int) {
entry:
  c0 = n > 0
  br c0, w0, r1
w0:
  store p->a, 1
  ret
r1:
  c1 = n > 1
  br c1, w1, r2
w1:
  store p->b, 1
  ret
r2:
  c2 = n > 2
  br c2, w2, r3
w2:
  store p->c, 1
  ret
r3:
  c3 = n > 3
  br c3, w3, w4
w3:
  store p->d, 1
  ret
w4:
  store p->e, 1
  ret
}
func main() {
entry:
  p = alloc pmem s
%s
  ret
}
|}
    (String.concat "\n" (List.init calls (fun _ -> "  call callee(p, 3)")))

let written_fields trace =
  List.filter_map
    (fun (e : Analysis.Event.t) ->
      match e.Analysis.Event.kind with
      | Analysis.Event.Write a -> a.Dsa.Aaddr.field
      | _ -> None)
    trace

let test_expansion_fanout () =
  let src = five_path_src ~calls:1 in
  check
    Alcotest.(list (list string))
    "callee's own paths"
    [ [ "a" ]; [ "b" ]; [ "c" ]; [ "d" ]; [ "e" ] ]
    (List.map written_fields (traces_of ~roots:[ "callee" ] src "callee"));
  let config =
    { Analysis.Config.default with Analysis.Config.expansion_fanout = 3 }
  in
  check
    Alcotest.(list (list string))
    "first three spliced, in DFS order"
    [ [ "a" ]; [ "b" ]; [ "c" ] ]
    (List.map written_fields (traces_of ~config ~roots:[ "main" ] src "main"))

(* Two call sites: the cross-product is callee-major and stops at
   [max_paths], so every merged path keeps the first callee path at the
   first site. *)
let test_max_paths_at_call_sites () =
  let config =
    {
      Analysis.Config.default with
      Analysis.Config.max_paths = 4;
      expansion_fanout = 5;
    }
  in
  check
    Alcotest.(list (list string))
    "capped cross-product"
    [ [ "a"; "a" ]; [ "a"; "b" ]; [ "a"; "c" ]; [ "a"; "d" ] ]
    (List.map written_fields
       (traces_of ~config ~roots:[ "main" ] (five_path_src ~calls:2) "main"))

let test_roots_selection () =
  let per_root =
    collect ~roots:[ "callee" ] call_src
  in
  check Alcotest.int "one root" 1 (List.length per_root);
  check Alcotest.string "requested root" "callee" (fst (List.hd per_root))

let prop_traces_end_balanced =
  QCheck.Test.make ~name:"traces have balanced tx markers" ~count:20
    QCheck.(map abs int)
    (fun seed ->
      let cfg = { Corpus.Synth.default_config with seed; nfuncs = 10 } in
      let prog, _ = Corpus.Synth.generate cfg in
      let dsg = Dsa.Dsg.build prog in
      let all = Analysis.Trace.collect dsg prog ~roots:(Corpus.Synth.roots cfg) in
      List.for_all
        (fun (_, ts) ->
          List.for_all
            (fun t ->
              let depth =
                List.fold_left
                  (fun d (e : Analysis.Event.t) ->
                    match e.Analysis.Event.kind with
                    | Analysis.Event.Tx_begin -> d + 1
                    | Analysis.Event.Tx_end -> d - 1
                    | _ -> d)
                  0 t
              in
              depth = 0)
            ts)
        all)

let suite =
  [
    tc "straight-line trace" `Quick test_straightline_trace;
    tc "volatile operations filtered out" `Quick test_volatile_ops_filtered;
    tc "branch enumeration" `Quick test_branch_paths;
    tc "loop bound" `Quick test_loop_bound;
    tc "interprocedural merge (Fig. 11)" `Quick test_interprocedural_merge;
    tc "recursion bounded" `Quick test_recursion_bounded;
    tc "max-paths cap" `Quick test_max_paths_cap;
    tc "expansion fanout" `Quick test_expansion_fanout;
    tc "max-paths cap at call sites" `Quick test_max_paths_at_call_sites;
    tc "explicit roots" `Quick test_roots_selection;
    QCheck_alcotest.to_alcotest prop_traces_end_balanced;
  ]
