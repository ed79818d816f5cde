(* synth-wide and synth-deep: each request checks a fresh Corpus.Synth
   program, static-only, under the strict model. Programs are generated
   untimed before their request; the seed fixes the stream.

   Synth's random call structure makes checking cost vary a hundredfold
   between programs of one size, which would make a run's percentiles
   depend on which few programs the seed happened to draw. So each
   workload accepts only programs in a fixed band of estimated checking
   cost, split into equal strata (in log scale), and draws its k-th
   program from stratum k mod strata: the seed changes the programs, not
   the cost distribution. The estimate is this file's own model of the
   input, computed from the program text, never from the checker.
   synth-wide uses one stratum: its 300-500 function candidates take
   about 7 ms each to generate, and narrow strata would reject most.

   Ground truth: Synth seeds a known number of defects, one warning
   each, so the warning count must equal it. *)

module A = Analysis

(* Per root: events along one path (E: persistent operations plus the
   call and return marks, callees spliced in) and the path count (P:
   branches times callee paths, capped at the checker's per-function
   path bound). Rule evaluation is quadratic in path length, so a root
   costs about P * E^2. *)
let estimated_cost prog roots =
  let cap = A.Config.default.A.Config.max_paths in
  let memo = Hashtbl.create 64 in
  let rec shape name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
      (* a recursive call counts as a leaf *)
      Hashtbl.replace memo name (0, 1);
      let v =
        match Nvmir.Prog.find_func prog name with
        | None -> (0, 1)
        | Some f ->
          let events = ref 0 and paths = ref 1 in
          Nvmir.Func.iter_instrs
            (fun _ (i : Nvmir.Instr.t) ->
              match i.Nvmir.Instr.kind with
              | Nvmir.Instr.Call { callee; _ } ->
                let e, p = shape callee in
                events := !events + 2 + e;
                paths := min cap (!paths * p)
              | _ -> if Nvmir.Instr.is_persistency_relevant i then incr events)
            f;
          List.iter
            (fun (b : Nvmir.Func.block) ->
              match b.Nvmir.Func.term with
              | Nvmir.Func.Cond_br _ -> paths := min cap (!paths * 2)
              | Nvmir.Func.Ret _ | Nvmir.Func.Br _ -> ())
            f.Nvmir.Func.blocks;
          (!events, !paths)
      in
      Hashtbl.replace memo name v;
      v
  in
  List.fold_left
    (fun acc r ->
      let e, p = shape r in
      acc +. (float_of_int p *. float_of_int e *. float_of_int e))
    0. roots

type spec = {
  salt : int;
  nfuncs : int * int;  (** inclusive range, drawn uniformly *)
  buggy_pct : int;
  ptr_arith_every : int option;  (** on every n-th accepted program *)
  driver_roots : bool;  (** check from Synth.roots, else the default root *)
  band : float * float;  (** accepted estimated cost *)
  strata : int;
}

type program = {
  label : string;
  cfg : Corpus.Synth.config;
  prog : Nvmir.Prog.t;
  seeded : int;
}

let roots spec (p : program) =
  if spec.driver_roots then Corpus.Synth.roots p.cfg
  else A.Trace.default_roots p.prog

(* The [k]-th program of the stream drawn from [rng]. *)
let draw spec rng k =
  let lo, hi = spec.nfuncs in
  let blo, bhi =
    let b0, b1 = spec.band in
    let step = (log b1 -. log b0) /. float_of_int spec.strata in
    let s = float_of_int (k mod spec.strata) in
    (exp (log b0 +. (s *. step)), exp (log b0 +. ((s +. 1.) *. step)))
  in
  let rec attempt n =
    if n > 10_000 then failwith "no program in the cost stratum"
    else
      let nfuncs = lo + Random.State.int rng (hi - lo + 1) in
      let cfg =
        {
          Corpus.Synth.default_config with
          seed = Random.State.bits rng;
          nfuncs;
          buggy_fraction_pct = spec.buggy_pct;
          ptr_arith =
            (match spec.ptr_arith_every with
            | Some m -> k mod m = m - 1
            | None -> false);
        }
      in
      let prog, seeded = Corpus.Synth.generate cfg in
      let p =
        { label = Fmt.str "synth(seed=%d,n=%d)" cfg.seed nfuncs; cfg; prog; seeded }
      in
      let cost = estimated_cost prog (roots spec p) in
      if cost >= blo && cost <= bhi then p else attempt (n + 1)
  in
  attempt 0

let check spec ~traced (p : program) =
  let roots = if spec.driver_roots then Some (Corpus.Synth.roots p.cfg) else None in
  if traced then Split.check ~model:A.Model.Strict ?roots p.prog
  else A.Checker.check ?roots ~model:A.Model.Strict p.prog

let oracle (p : program) (r : A.Checker.result) =
  let n = List.length r.A.Checker.warnings in
  if n = p.seeded then []
  else [ Fmt.str "%d warnings for %d seeded defects" n p.seeded ]

let setup spec ~seed ~traced =
  (* priming: one program that is the same for every seed, so set-up
     time does not depend on the seed *)
  ignore (check spec ~traced:false (draw spec (Workload.rng ~seed:0 spec.salt) 0));
  let rng = Workload.rng ~seed spec.salt in
  let run i =
    let p = draw spec rng i in
    let r = Workload.timed ~traced i (fun () -> check spec ~traced p) in
    if traced then Split.callgraph_probe p.prog;
    Workload.outcome ~input:p.label r (oracle p)
  in
  { Workload.run; verify = (fun () -> []) }

let wide_spec =
  {
    salt = 0x51;
    nfuncs = (300, 500);
    buggy_pct = 25;
    ptr_arith_every = Some 2;
    driver_roots = true;
    band = (20e6, 300e6);
    strata = 1;
  }

let deep_spec =
  {
    salt = 0x52;
    nfuncs = (10, 20);
    buggy_pct = 25;
    ptr_arith_every = None;
    driver_roots = false;
    band = (4e6, 16e6);
    strata = 8;
  }

let wide = { Workload.name = "synth-wide"; domains = 2; setup = setup wide_spec }
let deep = { Workload.name = "synth-deep"; domains = 1; setup = setup deep_spec }
