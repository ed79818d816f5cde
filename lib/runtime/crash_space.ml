(* Crash-image state-space exploration: the repo's one crash model.

   A crash is injected after the k-th persistent-memory event (or at
   program exit). At that point ANY subset of the cache lines still in
   flight (Dirty, or flushed but not yet fenced) may have reached NVM,
   decided by eviction and write-back completion order rather than by
   the program. The deep write-back reorderings that make persistency
   bugs "deep" live in those images, which is why enumerating reachable
   post-crash images is the standard ground-truth oracle for
   crash-consistency detectors (WITCHER, PMRace).

   The program runs once. [record] journals the heap through that run
   and keeps, per persistent slot, the timeline of its cached, fenced,
   line and rollback state, indexed by event; every task reads this one
   immutable recording, so tasks fan out across domains freely. The
   interpreter is deterministic, so the recording is exactly the heap
   each crash point would have left, eviction included.

   At every crash point (and at program exit, where still-volatile lines
   are simply lost) one walk, [walk]:

   - rebuilds the crashed heap from the recording and takes the
     candidate lines from [Pmem.inflight_lines];
   - materializes each persisted-subset via [Pmem.materialize], with
     open transactions rolled back;
   - prunes by persistence equivalence — many subsets collapse to the
     same durable state (flushing clean data, overlapping lines), and
     the pruning ratio is reported. Images are keyed by an additive
     per-slot hash and compared exactly on every hash hit;
   - enumerates exhaustively when 2^candidates fits the [bound], and
     otherwise draws a deterministic sample that always starts with the
     empty subset (and, when the bound is at least 2, the full one).

   The empty subset is the prefix image — exactly [Pmem.durable_snapshot]
   of the crashed heap, what survives when nothing in flight persisted —
   and it is always the first image walked, so the prefix image is never
   lost under sampling.

   [explore_task] judges each distinct image against an [oracle]: a user
   invariant over the materialized heap, or the built-in [Sequential]
   oracle that accepts an image iff it equals some program-order prefix
   of the recorded write sequence (the states strict persistency allows)
   and, at exit, iff no write is left volatile. Point k's writes are a
   prefix of the run's writes, so the prefix images are hashed once per
   program: an image is a prefix image iff some prefix no longer than
   point k's has its hash and the same contents. [task_images] hands the
   same images to the recovery tier. *)

type oracle =
  | Sequential
  | Invariant of ((Pmem.addr -> Value.t) -> (unit, string) result)

type task = Point of int | Exit

type witness = {
  w_task : task;
  w_persisted : (int * int) list; (* the lines that reached NVM *)
  w_detail : string;
}

type point_result = {
  task : task;
  candidate_lines : int;
  subsets_enumerated : int;
  distinct_images : int;
  sampled : bool; (* true when the subset space exceeded the bound *)
  witnesses : witness list; (* one per distinct inconsistent image *)
}

type report = {
  points : point_result list;
  crash_points : int; (* event-injection points, excluding exit *)
  images_enumerated : int;
  images_distinct : int;
  inconsistent : int;
  witnesses : witness list; (* all, in point order *)
}

let default_bound = 256

(* ------------------------------------------------------------------ *)
(* The recording. Events are numbered from 1; "point k" is the heap as
   event k's notification saw it, and exit is point [crash_points + 1].
   A slot's timeline lists the points at which its view changed. *)

type timeline = { ats : int array; views : Pmem.slot_view array }

type robj = {
  id : int;
  born : int; (* the first point at which the object is live *)
  ty : Nvmir.Ty.t;
  name : string option;
  slots : timeline array;
}

type recording = {
  config : Config.t;
  crash_points : int;
  objects : robj array; (* the persistent objects, by id *)
  writes_upto : int array; (* writes among events 1..k, for k = 0..crash_points *)
  write_point : int array; (* the event of the j-th write; 0 for j = 0 *)
  prefixes : (int, int list) Hashtbl.t;
      (* prefix-image hash -> the prefix lengths that have it *)
}

let initial =
  { Pmem.cached = Value.Vnull; fenced = Vnull; state = Clean; rollback = None }

(* The slot's view at point [k]: its last change at or before [k]. *)
let view_at { ats; views } k =
  let lo = ref 0 and hi = ref (Array.length ats) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ats.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then initial else views.(!lo - 1)

(* An image's hash is the sum of its slots' hashes and a null slot
   hashes to 0, so one write moves a running hash in O(1) and objects
   nothing has written add nothing. *)
let slot_hash obj_id slot (v : Value.t) =
  let mix h k =
    let h = (h lxor k) * 0x100000001b3 in
    h lxor (h lsr 29)
  in
  let at = mix (mix 0x2545F491 obj_id) slot in
  match v with
  | Vnull -> 0
  | Vint n -> mix (mix at 1) n
  | Vbool b -> mix (mix at 2) (Bool.to_int b)
  | Vref { obj; off } -> mix (mix (mix at 3) obj) off

let image_hash (img : (int, Value.t array) Hashtbl.t) =
  Hashtbl.fold
    (fun id arr h ->
      let h = ref h in
      Array.iteri (fun slot v -> h := !h + slot_hash id slot v) arr;
      !h)
    img 0

let images_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun id arr ok ->
         ok
         &&
         match Hashtbl.find_opt b id with
         | Some arr' -> Array.for_all2 Value.equal arr arr'
         | None -> false)
       a true

let m_executions =
  Obs.Metrics.counter "crash.executions"
    ~desc:"program executions recorded for the crash and recovery tiers"

let record ?(config = Config.default) ?entry ?args prog =
  let pmem = Pmem.create ~config () in
  Pmem.start_journal pmem;
  let events = ref 0 and writes = ref 0 and hash = ref 0 in
  let building = Hashtbl.create 16 in (* persistent id -> born, timelines *)
  let upto = ref [ 0 ] and write_points = ref [ 0 ] in
  let prefixes = Hashtbl.create 64 in
  Hashtbl.replace prefixes 0 [ 0 ];
  let history (a : Pmem.addr) =
    Option.map snd (Hashtbl.find_opt building a.obj_id)
  in
  (* Log the current view of every slot touched since the last event
     as of point [at]. *)
  let settle at =
    List.iter
      (fun (a : Pmem.addr) ->
        match history a with
        | Some h -> (
          match h.(a.slot) with
          | (at', _) :: _ when at' = at -> ()
          | l -> h.(a.slot) <- (at, Pmem.slot_view pmem a) :: l)
        | None -> ())
      (Pmem.take_journal pmem)
  in
  let event () =
    incr events;
    settle !events;
    upto := !writes :: !upto
  in
  let cached (a : Pmem.addr) =
    match Option.map (fun h -> h.(a.slot)) (history a) with
    | Some ((_, v) :: _) -> v.Pmem.cached
    | _ -> Value.Vnull
  in
  let listener =
    {
      Pmem.null_listener with
      Pmem.on_alloc =
        (fun ~obj_id ~persistent ~size ->
          if persistent then
            Hashtbl.replace building obj_id (!events + 1, Array.make size []));
      on_write =
        (fun a _ ->
          let old = cached a in
          incr writes;
          event ();
          hash :=
            !hash
            - slot_hash a.obj_id a.slot old
            + slot_hash a.obj_id a.slot (cached a);
          Hashtbl.replace prefixes !hash
            (!writes
            :: Option.value ~default:[] (Hashtbl.find_opt prefixes !hash));
          write_points := !events :: !write_points);
      on_flush = (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ _ -> event ());
      on_fence = (fun _ -> event ());
      on_tx_begin = (fun _ -> event ());
      on_tx_end = (fun _ -> event ());
    }
  in
  Pmem.add_listener pmem listener;
  if Obs.enabled () then Obs.Metrics.incr m_executions;
  ignore (Interp.run ?entry ?args (Interp.create ~pmem prog));
  settle (!events + 1);
  let objects =
    Hashtbl.fold
      (fun id (born, h) acc ->
        let slots =
          Array.map
            (fun l ->
              let l = Array.of_list (List.rev l) in
              { ats = Array.map fst l; views = Array.map snd l })
            h
        in
        {
          id;
          born;
          ty = Pmem.obj_ty pmem id;
          name = Pmem.obj_name pmem id;
          slots;
        }
        :: acc)
      building []
    |> List.sort (fun a b -> Int.compare a.id b.id)
    |> Array.of_list
  in
  {
    config;
    crash_points = !events;
    objects;
    writes_upto = Array.of_list (List.rev !upto);
    write_point = Array.of_list (List.rev !write_points);
    prefixes;
  }

let count_points r = r.crash_points

let tasks ~crash_points =
  List.init crash_points (fun i -> Point (i + 1)) @ [ Exit ]

let point_of r = function Point k -> k | Exit -> r.crash_points + 1

(* The heap a crash at point [k] leaves. *)
let heap_at r k =
  Array.to_list r.objects
  |> List.filter (fun o -> o.born <= k)
  |> List.map (fun o ->
         (o.id, o.ty, o.name, Array.map (fun tl -> view_at tl k) o.slots))
  |> Pmem.crashed ~config:r.config

(* Whether [img], an image of point [k], is the prefix image of the
   first [j] writes: each slot holds its value as of the j-th write's
   event, over the objects live at [k]. *)
let is_prefix_image r ~k img j =
  let at = r.write_point.(j) in
  Array.for_all
    (fun o ->
      o.born > k
      ||
      let arr = Hashtbl.find img o.id in
      let rec same s =
        s >= Array.length arr
        || (Value.equal arr.(s) (view_at o.slots.(s) at).cached && same (s + 1))
      in
      same 0)
    r.objects

(* Subsets of [ncand] candidate lines as bool arrays: exhaustive while
   2^ncand fits the bound, otherwise a deterministic LCG sample whose
   first draw is the empty subset and, from a bound of 2, whose second
   is the full one. *)
let enumerate ~bound ~seed ncand =
  if ncand = 0 then ([ [||] ], false)
  else if ncand <= 20 && 1 lsl ncand <= bound then
    ( List.init (1 lsl ncand) (fun mask ->
          Array.init ncand (fun i -> mask land (1 lsl i) <> 0)),
      false )
  else begin
    let state = ref ((seed land 0x3FFFFFFF) lor 1) in
    let bit () =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (* the low bits of this LCG alternate; sample a middle bit *)
      (!state lsr 16) land 1 = 1
    in
    let n = max 1 bound in
    ( List.init n (fun i ->
          if i = 0 then Array.make ncand false
          else if i = 1 then Array.make ncand true
          else Array.init ncand (fun _ -> bit ())),
      true )
  end

(* The one distinct-image walk: rebuild the heap of [task], seed the
   sampler per task, enumerate persisted-subsets of the in-flight lines,
   materialize and hash each, and call [on_image] once per distinct
   durable image, in enumeration order. Returns the crashed heap and the
   task's counts (with no witnesses). *)
let walk r ~bound ~seed ~task on_image =
  let heap = heap_at r (point_of r task) in
  let candidates = Pmem.inflight_lines heap in
  let ncand = List.length candidates in
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let complete =
    (* the image with every in-flight line persisted *)
    lazy
      (let img = Pmem.materialize heap ~persist:candidates in
       (image_hash img, img))
  in
  let seen = Hashtbl.create 64 in (* hash -> the distinct images with it *)
  let distinct = ref 0 in
  List.iter
    (fun sub ->
      let persist = List.filteri (fun i _ -> sub.(i)) candidates in
      let img = Pmem.materialize heap ~persist in
      let h = image_hash img in
      let same = Option.value ~default:[] (Hashtbl.find_opt seen h) in
      if not (List.exists (images_equal img) same) then begin
        Hashtbl.replace seen h (img :: same);
        incr distinct;
        on_image ~complete ~persist img h
      end)
    subs;
  ( heap,
    {
      task;
      candidate_lines = ncand;
      subsets_enumerated = List.length subs;
      distinct_images = !distinct;
      sampled;
      witnesses = [];
    } )

let m_enumerated =
  Obs.Metrics.counter "crash.images_enumerated"
    ~desc:"write-back subsets enumerated across crash points"

let m_pruned =
  Obs.Metrics.counter "crash.images_pruned"
    ~desc:"enumerated subsets collapsed by persistence-equivalence pruning"

let m_sampled =
  Obs.Metrics.counter "crash.points_sampled"
    ~desc:"crash points whose subset space was sampled, not exhaustive"

let m_points =
  Obs.Metrics.counter "crash.points_explored" ~desc:"crash points explored"

(* Reads of a materialized image; unknown addresses read as [Vnull]. *)
let reader img { Pmem.obj_id; slot } =
  match Hashtbl.find_opt img obj_id with
  | Some arr when slot >= 0 && slot < Array.length arr -> arr.(slot)
  | _ -> Value.Vnull

let verdict r oracle ~task ~complete img h =
  match oracle with
  | Invariant f -> f (reader img)
  | Sequential -> (
    match task with
    | Point k ->
      let w = r.writes_upto.(k) in
      if
        List.exists
          (fun j -> j <= w && is_prefix_image r ~k img j)
          (Option.value ~default:[] (Hashtbl.find_opt r.prefixes h))
      then Ok ()
      else
        Error
          "durable image matches no program-order prefix of the write \
           sequence"
    | Exit ->
      let ch, cimg = Lazy.force complete in
      if h = ch && images_equal img cimg then Ok ()
      else Error "writes still volatile at program exit are lost")

let explore_task ?(bound = default_bound) ?(seed = 1) ?(oracle = Sequential)
    ~task r : point_result =
  Obs.Span.with_ ~name:"crash-point" (fun () ->
  let witnesses = ref [] in
  let _, pt =
    walk r ~bound ~seed ~task (fun ~complete ~persist img h ->
        match verdict r oracle ~task ~complete img h with
        | Ok () -> ()
        | Error d ->
          witnesses :=
            { w_task = task; w_persisted = persist; w_detail = d }
            :: !witnesses)
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr m_points;
    Obs.Metrics.add m_enumerated pt.subsets_enumerated;
    Obs.Metrics.add m_pruned (pt.subsets_enumerated - pt.distinct_images);
    if pt.sampled then Obs.Metrics.incr m_sampled
  end;
  { pt with witnesses = List.rev !witnesses })

(* ------------------------------------------------------------------ *)
(* Image enumeration for the recovery tier: the same walk as
   [explore_task], returning the crashed pmem and the distinct
   materialized images instead of judging them against an oracle. The
   recovery executor corrupts and restores each image separately. *)

type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_image : (int, Value.t array) Hashtbl.t;
}

let task_images ?(bound = default_bound) ?(seed = 1) ~task r =
  let images = ref [] in
  let heap, pt =
    walk r ~bound ~seed ~task (fun ~complete:_ ~persist img _ ->
        images :=
          { ci_task = task; ci_persisted = persist; ci_image = img } :: !images)
  in
  (heap, List.rev !images, pt.sampled)

let crash_images ?config ?entry ?args ?bound ?seed ~task prog =
  task_images ?bound ?seed ~task (record ?config ?entry ?args prog)

let summarize ~crash_points (points : point_result list) : report =
  let images_enumerated =
    List.fold_left (fun a p -> a + p.subsets_enumerated) 0 points
  in
  let images_distinct =
    List.fold_left (fun a p -> a + p.distinct_images) 0 points
  in
  let witnesses = List.concat_map (fun (p : point_result) -> p.witnesses) points in
  {
    points;
    crash_points;
    images_enumerated;
    images_distinct;
    inconsistent = List.length witnesses;
    witnesses;
  }

let consistent r = r.inconsistent = 0

let pruning_ratio r =
  if r.images_enumerated = 0 then 0.
  else 1. -. (float_of_int r.images_distinct /. float_of_int r.images_enumerated)

let violation_points r =
  List.filter_map
    (fun p ->
      match (p.task, p.witnesses) with
      | Point k, _ :: _ -> Some k
      | _ -> None)
    r.points
  |> List.sort_uniq Int.compare

let first_witness r = match r.witnesses with [] -> None | w :: _ -> Some w

(* ------------------------------------------------------------------ *)
(* Printers *)

let pp_task ppf = function
  | Point k -> Fmt.pf ppf "event %d" k
  | Exit -> Fmt.string ppf "exit"

let pp_line ppf (o, l) = Fmt.pf ppf "obj%d.L%d" o l

let pp_witness ppf w =
  Fmt.pf ppf "at %a: persisted {%a}: %s" pp_task w.w_task
    Fmt.(list ~sep:(any ", ") pp_line)
    w.w_persisted w.w_detail

let max_printed_witnesses = 10

let pp_report ppf r =
  let shown, hidden =
    let rec take n = function
      | w :: ws when n > 0 ->
        let s, h = take (n - 1) ws in
        (w :: s, h)
      | ws -> ([], List.length ws)
    in
    take max_printed_witnesses r.witnesses
  in
  Fmt.pf ppf
    "@[<v>crash points: %d (+ exit); images: %d enumerated, %d distinct \
     (pruning %.0f%%); inconsistent: %d%a%t@]"
    r.crash_points r.images_enumerated r.images_distinct
    (100. *. pruning_ratio r)
    r.inconsistent
    Fmt.(list ~sep:nop (fun ppf w -> Fmt.pf ppf "@   %a" pp_witness w))
    shown
    (fun ppf -> if hidden > 0 then Fmt.pf ppf "@   ... and %d more" hidden)
