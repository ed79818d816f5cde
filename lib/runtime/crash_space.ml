(* Crash-image state-space exploration: the repo's one crash model.

   A crash is injected after the k-th persistent-memory event (or at
   program exit). At that point ANY subset of the cache lines still in
   flight (Dirty, or flushed but not yet fenced) may have reached NVM,
   decided by eviction and write-back completion order rather than by
   the program. The deep write-back reorderings that make persistency
   bugs "deep" live in those images, which is why enumerating reachable
   post-crash images is the standard ground-truth oracle for
   crash-consistency detectors (WITCHER, PMRace).

   At every crash point (and at program exit, where still-volatile lines
   are simply lost) one walk, [walk]:

   - re-executes the program up to the task and takes the candidate
     lines from [Pmem.inflight_lines];
   - materializes each persisted-subset via [Pmem.materialize], with
     open transactions rolled back;
   - prunes by a persistence-equivalence digest — many subsets collapse
     to the same durable state (flushing clean data, overlapping lines),
     and the pruning ratio is reported;
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
   and, at exit, iff no write is left volatile. [crash_images] hands the
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

exception Crashed

(* Re-execute up to [task] (a crash point, or completion for [Exit]),
   recording the persistent write sequence for the Sequential oracle.
   Every persistent-memory event (write, flush, fence, tx begin/end)
   counts, so crash points cover each interesting intermediate state;
   the count is returned with the crashed heap. *)
let run_to ?config ?entry ?args ~task prog =
  let pmem = Pmem.create ?config () in
  let writes = ref [] in
  let n = ref 0 in
  let at = match task with Point k -> k | Exit -> max_int in
  let bump _loc =
    incr n;
    if !n = at then raise Crashed
  in
  let listener =
    {
      Pmem.null_listener with
      Pmem.on_write =
        (fun a loc ->
          (* the cached value at notification time is the written value *)
          writes := (a, Pmem.cached_value pmem a) :: !writes;
          bump loc);
      on_flush =
        (fun ~obj_id:_ ~first_slot:_ ~nslots:_ ~dirty:_ loc -> bump loc);
      on_fence = bump;
      on_tx_begin = bump;
      on_tx_end = bump;
    }
  in
  Pmem.add_listener pmem listener;
  let interp = Interp.create ~pmem prog in
  (try ignore (Interp.run ?entry ?args interp) with Crashed -> ());
  (pmem, List.rev !writes, !n)

let count_points ?config ?entry ?args prog =
  let _, _, n = run_to ?config ?entry ?args ~task:Exit prog in
  n

let tasks ~crash_points =
  List.init crash_points (fun i -> Point (i + 1)) @ [ Exit ]

(* Persistence-equivalence digest: an injective rendering of the durable
   image, so images are compared (and pruned) by exact state, not by the
   subset that produced them. *)
let digest (img : (int, Value.t array) Hashtbl.t) =
  let ids = Hashtbl.fold (fun k _ a -> k :: a) img [] |> List.sort Int.compare in
  let b = Buffer.create 128 in
  List.iter
    (fun id ->
      Buffer.add_string b (Fmt.str "o%d:" id);
      Array.iter
        (fun v -> Buffer.add_string b (Fmt.str "%a;" Value.pp v))
        (Hashtbl.find img id))
    ids;
  Buffer.contents b

(* The digests of every program-order prefix of the write sequence,
   replayed over an initially-zero image of the objects live at the
   crash — the durable states a strictly-persistent execution can
   expose. *)
let prefix_digests pmem writes =
  let img = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if Pmem.is_persistent pmem id then
        Hashtbl.replace img id (Array.make (Pmem.obj_size pmem id) Value.Vnull))
    (Pmem.live_objects pmem);
  let set = Hashtbl.create (List.length writes + 1) in
  Hashtbl.replace set (digest img) ();
  List.iter
    (fun ({ Pmem.obj_id; slot }, v) ->
      match Hashtbl.find_opt img obj_id with
      | Some arr ->
        arr.(slot) <- v;
        Hashtbl.replace set (digest img) ()
      | None -> ())
    writes;
  set

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

(* The Sequential oracle's references for one crash task, built lazily
   so invariant oracles and image collection never pay for them. *)
type reference = {
  prefixes : (string, unit) Hashtbl.t Lazy.t;
      (* digests of the program-order prefixes of the write sequence *)
  complete : string Lazy.t;
      (* digest of the image with every in-flight line persisted *)
}

(* The one distinct-image walk: re-execute to [task], seed the sampler
   per task, enumerate persisted-subsets of the in-flight lines,
   materialize and digest each, and call [on_image] once per distinct
   durable image, in enumeration order. Images are not retained here;
   the callback decides what to keep. Returns the crashed heap and the
   task's counts (with no witnesses). *)
let walk ?config ?entry ?args ~bound ~seed ~task prog on_image =
  let heap, writes, _ = run_to ?config ?entry ?args ~task prog in
  let candidates = Pmem.inflight_lines heap in
  let ncand = List.length candidates in
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let image persist = Pmem.materialize heap ~persist in
  let reference =
    {
      prefixes = lazy (prefix_digests heap writes);
      complete = lazy (digest (image candidates));
    }
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun sub ->
      let persist = List.filteri (fun i _ -> sub.(i)) candidates in
      let img = image persist in
      let dg = digest img in
      if not (Hashtbl.mem seen dg) then begin
        Hashtbl.replace seen dg ();
        on_image reference ~persist img dg
      end)
    subs;
  ( heap,
    {
      task;
      candidate_lines = ncand;
      subsets_enumerated = List.length subs;
      distinct_images = Hashtbl.length seen;
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

let verdict oracle ~task reference img dg =
  match oracle with
  | Invariant f -> f (reader img)
  | Sequential -> (
    match task with
    | Point _ ->
      if Hashtbl.mem (Lazy.force reference.prefixes) dg then Ok ()
      else
        Error
          "durable image matches no program-order prefix of the write \
           sequence"
    | Exit ->
      if String.equal dg (Lazy.force reference.complete) then Ok ()
      else Error "writes still volatile at program exit are lost")

let explore_task ?config ?entry ?args ?(bound = default_bound) ?(seed = 1)
    ?(oracle = Sequential) ~task prog : point_result =
  Obs.Span.with_ ~name:"crash-point" (fun () ->
  let witnesses = ref [] in
  let _, pt =
    walk ?config ?entry ?args ~bound ~seed ~task prog
      (fun reference ~persist img dg ->
        match verdict oracle ~task reference img dg with
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

let crash_images ?config ?entry ?args ?(bound = default_bound) ?(seed = 1)
    ~task prog =
  let images = ref [] in
  let heap, pt =
    walk ?config ?entry ?args ~bound ~seed ~task prog
      (fun _ ~persist img _ ->
        images :=
          { ci_task = task; ci_persisted = persist; ci_image = img } :: !images)
  in
  (heap, List.rev !images, pt.sampled)

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
