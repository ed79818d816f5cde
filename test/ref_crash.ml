(* A naive reference for crash-image exploration, the oracle the
   recorded explorer ([Runtime.Crash_space]) is checked against: every
   task re-executes the program up to its crash point, every image is
   materialized as a table and rendered to a string, and the Sequential
   oracle re-renders every program-order prefix of the write sequence
   at every crash point. No recording, no hashing. The recovery tier's
   images take the same table through a media-model pass that rescans
   the heap for in-flight lines, and then into a restored heap. Results
   use [Crash_space]'s own types so the two can be compared. *)

module Crash_space = Runtime.Crash_space
module Pmem = Runtime.Pmem
module Value = Runtime.Value

exception Crashed

(* Re-execute up to [task], recording the persistent write sequence.
   Every persistent-memory event (write, flush, fence, tx begin/end)
   counts; the count is returned with the crashed heap. *)
let run_to ?config ?entry ?args ~task prog =
  let pmem = Pmem.create ?config () in
  let writes = ref [] in
  let n = ref 0 in
  let at = match task with Crash_space.Point k -> k | Exit -> max_int in
  let bump _loc =
    incr n;
    if !n = at then raise Crashed
  in
  let listener =
    {
      Pmem.null_listener with
      Pmem.on_write =
        (fun a loc ->
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
  let interp = Runtime.Interp.create ~pmem prog in
  (try ignore (Runtime.Interp.run ?entry ?args interp) with Crashed -> ());
  (pmem, List.rev !writes, !n)

let count_points ?config ?entry ?args prog =
  let _, _, n = run_to ?config ?entry ?args ~task:Exit prog in
  n

(* An injective rendering of a durable image. *)
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
   replayed over an initially-null image of the objects live at the
   crash. *)
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

(* Exhaustive while 2^ncand fits the bound, otherwise an LCG sample
   starting with the empty and (from bound 2) the full subset. *)
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
      (!state lsr 16) land 1 = 1
    in
    let n = max 1 bound in
    ( List.init n (fun i ->
          if i = 0 then Array.make ncand false
          else if i = 1 then Array.make ncand true
          else Array.init ncand (fun _ -> bit ())),
      true )
  end

(* The lines holding a non-Clean slot, found slot by slot. *)
let inflight_lines heap =
  let w = (Pmem.config heap).Runtime.Config.cacheline_slots in
  List.concat_map
    (fun obj_id ->
      if not (Pmem.is_persistent heap obj_id) then []
      else
        List.init (Pmem.obj_size heap obj_id) Fun.id
        |> List.filter (fun slot ->
               Pmem.slot_state heap { Pmem.obj_id; slot } <> Pmem.Clean)
        |> List.map (fun slot -> (obj_id, slot / w)))
    (Pmem.live_objects heap)
  |> List.sort_uniq compare

(* The durable image if exactly the [persist] lines were written back
   before the crash: a slot takes its innermost undo value if an open
   transaction logged it, else its cached value if its line persisted,
   else its fenced value. Only persistent objects appear. *)
let materialize heap ~persist =
  let w = (Pmem.config heap).Runtime.Config.cacheline_slots in
  let img = Hashtbl.create 8 in
  List.iter
    (fun obj_id ->
      if Pmem.is_persistent heap obj_id then
        Hashtbl.replace img obj_id
          (Array.init (Pmem.obj_size heap obj_id) (fun slot ->
               let v = Pmem.slot_view heap { Pmem.obj_id; slot } in
               match v.Pmem.rollback with
               | Some u -> u
               | None ->
                 if List.mem (obj_id, slot / w) persist then v.Pmem.cached
                 else v.Pmem.fenced)))
    (Pmem.live_objects heap);
  img

(* The media model as a pass over a materialized image: every in-flight
   line of [heap] suffers one seeded corruption kind, in line order.
   Mutates [image]; returns the slots whose value changed. *)
let corrupt_image heap ~seed image =
  let w = (Pmem.config heap).Runtime.Config.cacheline_slots in
  let rng = ref ((seed lxor 0x2545F49) land 0x3FFFFFFF) in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let flip_value r (v : Value.t) : Value.t =
    match v with
    | Vint n -> Vint (n lxor (1 lsl (r mod 30)))
    | Vbool b -> Vbool (not b)
    | Vref _ -> Vnull
    | Vnull -> Vint (1 lsl (r mod 30))
  in
  List.concat_map
    (fun (obj_id, line) ->
      match Hashtbl.find_opt image obj_id with
      | None -> []
      | Some arr ->
        let view s = Pmem.slot_view heap { Pmem.obj_id; slot = s } in
        let lo = line * w in
        let hi = min (Array.length arr) (lo + w) in
        let kind : Pmem.corruption_kind =
          match next () mod 3 with
          | 0 -> Torn_line
          | 1 -> Bit_flip
          | _ -> Stale_line
        in
        let corrupt_slot s now =
          let was = arr.(s) in
          if Value.equal was now then None
          else begin
            arr.(s) <- now;
            Some
              { Pmem.c_addr = { obj_id; slot = s }; c_kind = kind; c_was = was;
                c_now = now }
          end
        in
        let slots = List.init (hi - lo) (fun d -> lo + d) in
        (match kind with
        | Torn_line ->
          List.filter_map
            (fun s ->
              let v =
                if next () land 1 = 0 then (view s).Pmem.fenced
                else (view s).Pmem.cached
              in
              corrupt_slot s v)
            slots
        | Bit_flip ->
          let s = lo + (next () mod max 1 (hi - lo)) in
          Option.to_list (corrupt_slot s (flip_value (next ()) arr.(s)))
        | Stale_line ->
          List.filter_map (fun s -> corrupt_slot s (view s).Pmem.fenced) slots))
    (inflight_lines heap)

(* The post-crash heap of a materialized image: a copy of the image,
   corrupted when a seed is given, with the heap's types and names. *)
let restore heap image media_seed =
  let image = Hashtbl.copy image in
  Hashtbl.filter_map_inplace (fun _ arr -> Some (Array.copy arr)) image;
  let corruptions =
    match media_seed with
    | Some seed -> corrupt_image heap ~seed image
    | None -> []
  in
  let objects =
    Hashtbl.fold
      (fun id arr acc ->
        (id, Pmem.obj_ty heap id, Pmem.obj_name heap id, arr) :: acc)
      image []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
  in
  ( Pmem.restore ~config:(Pmem.config heap) objects
      ~corrupt:(List.map (fun (c : Pmem.corruption) -> c.Pmem.c_addr) corruptions),
    corruptions )

let walk ?config ?entry ?args ~bound ~seed ~task prog on_image =
  let heap, writes, _ = run_to ?config ?entry ?args ~task prog in
  let candidates = inflight_lines heap in
  let ncand = List.length candidates in
  let seed =
    seed lxor (match task with Crash_space.Point k -> k * 7919 | Exit -> 104729)
  in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let image persist = materialize heap ~persist in
  let prefixes = lazy (prefix_digests heap writes) in
  let complete = lazy (digest (image candidates)) in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun sub ->
      let persist = List.filteri (fun i _ -> sub.(i)) candidates in
      let img = image persist in
      let dg = digest img in
      if not (Hashtbl.mem seen dg) then begin
        Hashtbl.replace seen dg ();
        on_image ~prefixes ~complete ~persist img dg
      end)
    subs;
  ( heap,
    {
      Crash_space.task;
      candidate_lines = ncand;
      subsets_enumerated = List.length subs;
      distinct_images = Hashtbl.length seen;
      sampled;
      witnesses = [];
    } )

let verdict oracle ~task ~prefixes ~complete img dg =
  match (oracle : Crash_space.oracle) with
  | Invariant f -> f (Crash_space.reader img)
  | Sequential -> (
    match task with
    | Crash_space.Point _ ->
      if Hashtbl.mem (Lazy.force prefixes) dg then Ok ()
      else
        Error
          "durable image matches no program-order prefix of the write \
           sequence"
    | Exit ->
      if String.equal dg (Lazy.force complete) then Ok ()
      else Error "writes still volatile at program exit are lost")

let explore_task ?config ?entry ?args ?(bound = Crash_space.default_bound)
    ?(seed = 1) ?(oracle = Crash_space.Sequential) ~task prog =
  let witnesses = ref [] in
  let _, pt =
    walk ?config ?entry ?args ~bound ~seed ~task prog
      (fun ~prefixes ~complete ~persist img dg ->
        match verdict oracle ~task ~prefixes ~complete img dg with
        | Ok () -> ()
        | Error d ->
          witnesses :=
            { Crash_space.w_task = task; w_persisted = persist; w_detail = d }
            :: !witnesses)
  in
  { pt with Crash_space.witnesses = List.rev !witnesses }

let crash_images ?config ?entry ?args ?(bound = Crash_space.default_bound)
    ?(seed = 1) ~task prog =
  let images = ref [] in
  let heap, pt =
    walk ?config ?entry ?args ~bound ~seed ~task prog
      (fun ~prefixes:_ ~complete:_ ~persist img _ ->
        images := (persist, img) :: !images)
  in
  ( List.rev_map
      (fun (persist, img) ->
        {
          Crash_space.ci_task = task;
          ci_persisted = persist;
          ci_restore = restore heap img;
        })
      !images,
    pt.Crash_space.sampled )
