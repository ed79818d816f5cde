(* Crash-image state-space exploration: the repo's one crash model.

   A crash is injected after the k-th persistent-memory event (or at
   program exit). At that point ANY subset of the cache lines still in
   flight (Dirty, or flushed but not yet fenced) may have reached NVM,
   decided by eviction and write-back completion order rather than by
   the program. The deep write-back reorderings that make persistency
   bugs "deep" live in those images, which is why enumerating reachable
   post-crash images is the standard ground-truth oracle for
   crash-consistency detectors (WITCHER, PMRace).

   The program runs once, driven by the caller on the heap [record]
   hands it. [record] journals the heap through that run and keeps, per
   persistent slot, the timeline of its cached, fenced, line and
   rollback state, indexed by event, and per event the slots whose view
   changed there. The interpreter is deterministic, so the
   recording is exactly the heap each crash point would have left,
   eviction included. It is immutable, so sweeps run on any domain.

   Crash points are swept in order, by one sweep per recording. Its
   cursor starts before the first event, where every slot is null and
   no object is live, and walks the tasks in order: stepping to the
   next point applies that point's changes. Beside the slot views it
   carries, per line, the number of non-Clean slots (so the in-flight
   lines, in (object, line) order, are always at hand) and the additive
   hash of the prefix image. No point rebuilds or rescans the heap.

   At every point (and at program exit, where still-volatile lines are
   simply lost):

   - the candidate lines are the in-flight lines;
   - a slot's image value depends only on whether its own line
     persisted: the rollback value if an open transaction logged the
     slot, else the cached value if the line persisted, else the fenced
     one. A line is effective when some slot in it changes value when
     the line persists, and two subsets leave the same image exactly
     when they agree on the effective lines. Persistence-equivalence
     pruning is that projection (flushing clean data, or lines a
     transaction rolls back, collapse), and an image's hash is the
     prefix hash plus the deltas of its persisted lines;
   - subsets are enumerated exhaustively when 2^candidates fits the
     [bound], and otherwise drawn as a deterministic sample that always
     starts with the empty subset (and, when the bound is at least 2,
     the full one).

   The empty subset is the prefix image, exactly [Pmem.durable_snapshot]
   of the heap the run left at the point (what survives when nothing in
   flight persisted), and it is always the first image walked, so
   sampling never loses it.

   The sweep judges each distinct image against an [oracle], when one
   is given: a user invariant over the materialized image, or the
   built-in [Sequential] oracle that accepts an image iff it equals
   some program-order prefix of the recorded write sequence (the states
   strict persistency allows) and, at exit, iff every effective line
   persisted (no write left volatile). Point k's writes are a prefix of
   the run's writes, so the prefix images are hashed once per program:
   an image is a prefix image iff some prefix no longer than point k's
   has its hash and the same contents, compared slot by slot through the
   views. It then hands the image to a callback, which may restore it.
   Only images a consumer reads are materialized: the Invariant
   oracle's, and those the callback restores for the recovery tier.
   Each of those is built straight from the views into the heap a
   restart would see ([Pmem.restore]), after the media model, which
   lives here too, has damaged the carried in-flight lines. The views
   are the one crashed state a sweep keeps. *)

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

(* A slot whose view changed at a point: its object's index in
   [objects], the slot, and the new view. *)
type change = { c_obj : int; c_slot : int; c_view : Pmem.slot_view }

type recording = {
  config : Config.t;
  crash_points : int;
  objects : robj array;
      (* the persistent objects in allocation order, which is id order,
         so [born] never decreases along the array *)
  changes : change array array; (* per point, 0 .. crash_points + 1 *)
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

let m_executions =
  Obs.Metrics.counter "crash.executions"
    ~desc:"program executions recorded for the crash and recovery tiers"

let record ?(config = Config.default) run =
  let pmem = Pmem.create ~config () in
  Pmem.start_journal pmem;
  let events = ref 0 and writes = ref 0 and hash = ref 0 in
  (* persistent id -> index (allocation order), born, timelines *)
  let building = Hashtbl.create 16 in
  let upto = ref [ 0 ] and write_points = ref [ 0 ] in
  let changes = ref [ [||] ] in (* per point, newest first *)
  let prefixes = Hashtbl.create 64 in
  Hashtbl.replace prefixes 0 [ 0 ];
  let history (a : Pmem.addr) =
    Option.map (fun (_, _, h) -> h) (Hashtbl.find_opt building a.obj_id)
  in
  (* Log the current view of every slot touched since the last event
     as of point [at], in its timeline and in the point's changes. *)
  let settle at =
    let changed = ref [] in
    List.iter
      (fun (a : Pmem.addr) ->
        match Hashtbl.find_opt building a.obj_id with
        | Some (c_obj, _, h) -> (
          match h.(a.slot) with
          | (at', _) :: _ when at' = at -> ()
          | l ->
            let c_view = Pmem.slot_view pmem a in
            h.(a.slot) <- (at, c_view) :: l;
            changed := { c_obj; c_slot = a.slot; c_view } :: !changed)
        | None -> ())
      (Pmem.take_journal pmem);
    changes := Array.of_list !changed :: !changes
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
            Hashtbl.replace building obj_id
              (Hashtbl.length building, !events + 1, Array.make size []));
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
  run pmem;
  settle (!events + 1);
  let objects =
    Hashtbl.fold
      (fun id (index, born, h) acc ->
        let slots =
          Array.map
            (fun l ->
              let l = Array.of_list (List.rev l) in
              { ats = Array.map fst l; views = Array.map snd l })
            h
        in
        ( index,
          {
            id;
            born;
            ty = Pmem.obj_ty pmem id;
            name = Pmem.obj_name pmem id;
            slots;
          } )
        :: acc)
      building []
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    |> List.map snd |> Array.of_list
  in
  {
    config;
    crash_points = !events;
    objects;
    changes = Array.of_list (List.rev !changes);
    writes_upto = Array.of_list (List.rev !upto);
    write_point = Array.of_list (List.rev !write_points);
    prefixes;
  }

let count_points r = r.crash_points

let obj_name r id =
  Option.bind (Array.find_opt (fun o -> o.id = id) r.objects) (fun o -> o.name)

let tasks ~crash_points =
  List.init crash_points (fun i -> Point (i + 1)) @ [ Exit ]

let point_of r = function Point k -> k | Exit -> r.crash_points + 1

(* ------------------------------------------------------------------ *)
(* The sweep state: the crashed state at point [at], as slot views
   plus what enumeration reads of them. *)

module Lines = Set.Make (struct
  type t = int * int (* object index, line *)

  let compare (o, l) (o', l') =
    match Int.compare o o' with 0 -> Int.compare l l' | c -> c
end)

type cursor = {
  r : recording;
  width : int; (* slots per cache line *)
  mutable at : int;
  mutable live : int; (* objects.(0 .. live - 1) are live at [at] *)
  views : Pmem.slot_view array array; (* per object, per slot *)
  busy : int array array; (* per object, per line: its non-Clean slots *)
  mutable inflight : Lines.t; (* the lines with a non-Clean slot *)
  mutable base : int; (* the hash of the prefix image *)
  mutable touched : (int * int) list;
      (* the slots some event has changed by [at], as (object index,
         slot); every other slot is null in every image and prefix *)
  marks : bool array array;
      (* per object, per line: persisted in the image being read; all
         false between reads *)
}

(* A slot's value in the prefix image: its undo value if an open
   transaction logged it, its fenced value otherwise. *)
let prefix_value (v : Pmem.slot_view) =
  match v.rollback with Some u -> u | None -> v.fenced

(* The state before the first event: every slot null, no object live. *)
let start r =
  let width = r.config.Config.cacheline_slots in
  let per_line f =
    Array.map (fun o -> Array.make ((Array.length o.slots + width - 1) / width) f)
      r.objects
  in
  {
    r;
    width;
    at = 0;
    live = 0;
    views = Array.map (fun o -> Array.map (fun _ -> initial) o.slots) r.objects;
    busy = per_line 0;
    inflight = Lines.empty;
    base = 0;
    touched = [];
    marks = per_line false;
  }

let apply c { c_obj = i; c_slot = s; c_view = v } =
  let old = c.views.(i).(s) and id = c.r.objects.(i).id and l = s / c.width in
  c.base <-
    c.base - slot_hash id s (prefix_value old) + slot_hash id s (prefix_value v);
  let busy = c.busy.(i) in
  if old.state <> Clean then begin
    busy.(l) <- busy.(l) - 1;
    if busy.(l) = 0 then c.inflight <- Lines.remove (i, l) c.inflight
  end;
  if v.state <> Clean then begin
    if busy.(l) = 0 then c.inflight <- Lines.add (i, l) c.inflight;
    busy.(l) <- busy.(l) + 1
  end;
  (* recorded views are never the shared [initial] record *)
  if old == initial then c.touched <- (i, s) :: c.touched;
  c.views.(i).(s) <- v

(* Step forward to point [k], applying every change on the way. *)
let seek c k =
  while c.at < k do
    c.at <- c.at + 1;
    while
      c.live < Array.length c.r.objects && c.r.objects.(c.live).born <= c.at
    do
      c.live <- c.live + 1
    done;
    Array.iter (apply c) c.r.changes.(c.at)
  done

(* Mark or unmark the candidate lines a subset persists. *)
let mark c cands sub on =
  Array.iteri (fun n (i, l) -> if sub.(n) then c.marks.(i).(l) <- on) cands

(* A slot's value in the image whose persisted lines are marked. *)
let image_value c i s =
  let v = c.views.(i).(s) in
  match v.rollback with
  | Some u -> u
  | None -> if c.marks.(i).(s / c.width) then v.cached else v.fenced

(* Whether the marked image is the prefix image of the first [j]
   writes: each live slot holds its value as of the j-th write's event.
   Slots no event has changed are null in both. *)
let is_prefix_image c j =
  let at = c.r.write_point.(j) in
  List.for_all
    (fun (i, s) ->
      Value.equal (image_value c i s)
        (view_at c.r.objects.(i).slots.(s) at).cached)
    c.touched

(* The marked image's slot values, per live object. *)
let image_values c =
  Array.init c.live (fun i ->
      Array.init (Array.length c.views.(i)) (image_value c i))

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

(* A distinct image of the current point: the candidate lines, which
   of them are effective (change a slot's value when they persist),
   the subset that persisted, and the image's hash. *)
type image = {
  cands : (int * int) array;
  effective : bool array;
  sub : bool array;
  hash : int;
}

let persisted c { cands; sub; _ } =
  List.filteri (fun n _ -> sub.(n)) (Array.to_list cands)
  |> List.map (fun (i, l) -> (c.r.objects.(i).id, l))

(* The one distinct-image walk of the current point: seed the sampler
   per task, enumerate persisted-subsets of the in-flight lines, and
   call [on_image] once per distinct durable image, in enumeration
   order: the first subset with each projection onto the effective
   lines. [on_image] may read the image by marking it. Returns the
   point's counts (with no witnesses). *)
let walk c ~bound ~seed ~task on_image =
  let cands = Array.of_list (Lines.elements c.inflight) in
  let ncand = Array.length cands in
  let delta = Array.make ncand 0 and effective = Array.make ncand false in
  Array.iteri
    (fun n (i, l) ->
      let id = c.r.objects.(i).id and vs = c.views.(i) in
      for s = l * c.width to min (Array.length vs) ((l + 1) * c.width) - 1 do
        let v = vs.(s) in
        if Option.is_none v.rollback && not (Value.equal v.cached v.fenced)
        then begin
          effective.(n) <- true;
          delta.(n) <-
            delta.(n) + slot_hash id s v.cached - slot_hash id s v.fenced
        end
      done)
    cands;
  let seed = seed lxor (match task with Point k -> k * 7919 | Exit -> 104729) in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let seen = Hashtbl.create 16 in (* effective projections walked *)
  let key = Bytes.create ncand in
  List.iter
    (fun sub ->
      let hash = ref c.base in
      for n = 0 to ncand - 1 do
        let on = sub.(n) && effective.(n) in
        Bytes.set key n (if on then '1' else '0');
        if on then hash := !hash + delta.(n)
      done;
      let k = Bytes.to_string key in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        on_image { cands; effective; sub; hash = !hash }
      end)
    subs;
  {
    task;
    candidate_lines = ncand;
    subsets_enumerated = List.length subs;
    distinct_images = Hashtbl.length seen;
    sampled;
    witnesses = [];
  }

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

(* Read the image with its persisted lines marked. *)
let reading c img f =
  mark c img.cands img.sub true;
  let x = f () in
  mark c img.cands img.sub false;
  x

let verdict c oracle ~task img =
  match oracle with
  | Invariant f ->
    let values = reading c img (fun () -> image_values c) in
    let img = Hashtbl.create (max 1 c.live) in
    Array.iteri (fun i vs -> Hashtbl.replace img c.r.objects.(i).id vs) values;
    f (reader img)
  | Sequential -> (
    match task with
    | Point k ->
      let w = c.r.writes_upto.(k) in
      let js =
        List.filter (fun j -> j <= w)
          (Option.value ~default:[] (Hashtbl.find_opt c.r.prefixes img.hash))
      in
      if
        js <> []
        && reading c img (fun () -> List.exists (is_prefix_image c) js)
      then Ok ()
      else
        Error
          "durable image matches no program-order prefix of the write \
           sequence"
    | Exit ->
      (* the complete write-back is the one image persisting every
         effective line *)
      if Array.for_all2 (fun e s -> s || not e) img.effective img.sub then
        Ok ()
      else Error "writes still volatile at program exit are lost")

(* ------------------------------------------------------------------ *)
(* The images the sweep hands over, as the heap a restart would see. *)

(* The media model: a line in flight at the crash was mid-write-back,
   so besides persisting or not it may be damaged. Each in-flight line,
   in (object, line) order, suffers one kind drawn from an LCG seeded
   per image: torn (each slot lands its fenced or its cached value),
   bit flip (one slot perturbed) or stale (the whole line reverts to
   its fenced values). [values] is the image, per live object; it is
   changed in place, and the slots whose value changed are returned in
   line order. *)
let corrupt c values ~seed =
  let rng = ref ((seed lxor 0x2545F49) land 0x3FFFFFFF) in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let flip_value r (v : Value.t) : Value.t =
    match v with
    | Vint n -> Vint (n lxor (1 lsl (r mod 30)))
    | Vbool b -> Vbool (not b)
    | Vref _ -> Vnull (* a torn pointer reads as garbage *)
    | Vnull -> Vint (1 lsl (r mod 30))
  in
  List.concat_map
    (fun (i, l) ->
      let arr = values.(i) and vs = c.views.(i) and obj_id = c.r.objects.(i).id in
      let lo = l * c.width in
      let hi = min (Array.length arr) (lo + c.width) in
      let c_kind : Pmem.corruption_kind =
        match next () mod 3 with
        | 0 -> Torn_line
        | 1 -> Bit_flip
        | _ -> Stale_line
      in
      let corrupt_slot s c_now =
        let c_was = arr.(s) in
        if Value.equal c_was c_now then None
        else begin
          arr.(s) <- c_now;
          Some { Pmem.c_addr = { obj_id; slot = s }; c_kind; c_was; c_now }
        end
      in
      let slots = List.init (hi - lo) (fun d -> lo + d) in
      match c_kind with
      | Torn_line ->
        List.filter_map
          (fun s ->
            let v = vs.(s) in
            corrupt_slot s (if next () land 1 = 0 then v.fenced else v.cached))
          slots
      | Bit_flip ->
        let s = lo + (next () mod max 1 (hi - lo)) in
        Option.to_list (corrupt_slot s (flip_value (next ()) arr.(s)))
      | Stale_line ->
        List.filter_map (fun s -> corrupt_slot s vs.(s).fenced) slots)
    (Lines.elements c.inflight)

type crash_image = {
  ci_task : task;
  ci_persisted : (int * int) list;
  ci_restore : int option -> Pmem.t * Pmem.corruption list;
}

(* The image as a post-crash heap, built afresh from the views on each
   call; only while the sweep is still at the image's point. *)
let restore c img =
  let at = c.at in
  fun media_seed ->
    if c.at <> at then
      invalid_arg "Crash_space: the sweep has moved past this image";
    let values = reading c img (fun () -> image_values c) in
    let corruptions =
      match media_seed with Some seed -> corrupt c values ~seed | None -> []
    in
    let objects =
      List.init c.live (fun i ->
          let o = c.r.objects.(i) in
          (o.id, o.ty, o.name, values.(i)))
    in
    ( Pmem.restore ~config:c.r.config objects
        ~corrupt:(List.map (fun (x : Pmem.corruption) -> x.c_addr) corruptions),
      corruptions )

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

(* The one sweep: every task in order on one cursor, started before
   the first event. Each distinct image is judged by [oracle], when one
   is given, then handed to [f]. One span per sweep. *)
let sweep ~bound ~seed ?oracle r f =
  Obs.Span.with_ ~name:"crash-sweep" (fun () ->
      let c = start r in
      List.map
        (fun task ->
          seek c (point_of r task);
          let witnesses = ref [] in
          let pt =
            walk c ~bound ~seed ~task (fun img ->
                let ci =
                  {
                    ci_task = task;
                    ci_persisted = persisted c img;
                    ci_restore = restore c img;
                  }
                in
                (match Option.map (fun o -> verdict c o ~task img) oracle with
                | Some (Error w_detail) ->
                  witnesses :=
                    { w_task = task; w_persisted = ci.ci_persisted; w_detail }
                    :: !witnesses
                | Some (Ok ()) | None -> ());
                f ci)
          in
          if Obs.enabled () then begin
            Obs.Metrics.incr m_points;
            Obs.Metrics.add m_enumerated pt.subsets_enumerated;
            Obs.Metrics.add m_pruned (pt.subsets_enumerated - pt.distinct_images);
            if pt.sampled then Obs.Metrics.incr m_sampled
          end;
          { pt with witnesses = List.rev !witnesses })
        (tasks ~crash_points:r.crash_points))
  |> summarize ~crash_points:r.crash_points

let consistent r = r.inconsistent = 0

let pruning_ratio r =
  if r.images_enumerated = 0 then 0.
  else 1. -. (float_of_int r.images_distinct /. float_of_int r.images_enumerated)

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
