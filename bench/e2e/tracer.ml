(* Spans the benchmark records around its own calls into each layer; the
   program under test is not instrumented. Each domain keeps its own open
   span stack and per-name totals, so spans opened inside pool tasks need
   no lock. A span's self time is its duration minus the time of the
   spans (and [add]ed phases) nested in it on the same domain. Span
   records are kept in memory, up to [max_spans], and written as a Chrome
   trace at the end of the run. *)

let now = Obs.now_ns

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;
  track : int;  (** domain id *)
  req : int;  (** request the span belongs to *)
  t0 : int64;
  t1 : int64;
}

type frame = {
  f_id : int;
  f_parent : int;
  f_t0 : int64;
  mutable f_child : int64;
}

type totals = { mutable self_ns : int64; mutable total_ns : int64 }

type track = {
  tid : int;
  mutable stack : frame list;
  table : (string, totals) Hashtbl.t;
  mutable spans : span list;
}

let max_spans = 50_000
let recorded = Atomic.make 0
let next_id = Atomic.make 1
let current_req = Atomic.make 0
let tracks : track list ref = ref []
let tracks_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let t =
        {
          tid = (Domain.self () :> int);
          stack = [];
          table = Hashtbl.create 32;
          spans = [];
        }
      in
      Mutex.protect tracks_lock (fun () -> tracks := t :: !tracks);
      t)

let credit t name ~self ~total =
  let x =
    match Hashtbl.find_opt t.table name with
    | Some x -> x
    | None ->
      let x = { self_ns = 0L; total_ns = 0L } in
      Hashtbl.add t.table name x;
      x
  in
  x.self_ns <- Int64.add x.self_ns self;
  x.total_ns <- Int64.add x.total_ns total

let charge_enclosing t ns =
  match t.stack with
  | up :: _ -> up.f_child <- Int64.add up.f_child ns
  | [] -> ()

(* The innermost open span on this domain, as a [~parent] for spans that
   a pool task opens on another domain. *)
let current () =
  match (Domain.DLS.get key).stack with fr :: _ -> fr.f_id | [] -> 0

let with_ ?parent name f =
  let t = Domain.DLS.get key in
  let parent = match parent with Some p -> p | None -> current () in
  let fr =
    {
      f_id = Atomic.fetch_and_add next_id 1;
      f_parent = parent;
      f_t0 = now ();
      f_child = 0L;
    }
  in
  t.stack <- fr :: t.stack;
  let close () =
    let t1 = now () in
    let dur = Int64.sub t1 fr.f_t0 in
    (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
    charge_enclosing t dur;
    credit t name ~self:(Int64.sub dur fr.f_child) ~total:dur;
    if Atomic.fetch_and_add recorded 1 < max_spans then
      t.spans <-
        {
          id = fr.f_id;
          parent = fr.f_parent;
          name;
          track = t.tid;
          req = Atomic.get current_req;
          t0 = fr.f_t0;
          t1;
        }
        :: t.spans
  in
  Fun.protect ~finally:close f

(* Time spent in a phase too fine-grained for a span of its own (one
   trace path): credited to [name] and nested in the open span. *)
let add name ns =
  let t = Domain.DLS.get key in
  credit t name ~self:ns ~total:ns;
  charge_enclosing t ns

(* One request: the span every layer call of request [i] nests in. *)
let request i f =
  Atomic.set current_req i;
  with_ "request" f

let reset () =
  Mutex.protect tracks_lock (fun () ->
      List.iter
        (fun t ->
          Hashtbl.reset t.table;
          t.spans <- [])
        !tracks);
  Atomic.set recorded 0

let sum field name =
  Mutex.protect tracks_lock (fun () ->
      List.fold_left
        (fun acc t ->
          match Hashtbl.find_opt t.table name with
          | Some x -> acc +. field x
          | None -> acc)
        0. !tracks)

let self_ns = sum (fun x -> Int64.to_float x.self_ns)
let total_ns = sum (fun x -> Int64.to_float x.total_ns)

(* Chrome trace_event document: one complete ("X") event per recorded
   span, one row per domain, times in microseconds from the first span. *)
let write_chrome path =
  let spans =
    Mutex.protect tracks_lock (fun () ->
        List.concat_map (fun t -> t.spans) !tracks)
    |> List.sort (fun a b -> Int64.compare a.t0 b.t0)
  in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1000. in
  let event s =
    Jsonw.Obj
      [
        ("name", String s.name);
        ("ph", String "X");
        ("ts", Float (us s.t0));
        ("dur", Float (Int64.to_float (Int64.sub s.t1 s.t0) /. 1000.));
        ("pid", Int 1);
        ("tid", Int s.track);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("req", Int s.req) ]);
      ]
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Jsonw.to_string (event s)))
    spans;
  output_string oc "\n]}\n";
  close_out oc
