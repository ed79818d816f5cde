(* A naive reference for crash-image exploration, the oracle the
   recorded explorer ([Runtime.Crash_space]) is checked against: every
   task re-executes the program up to its crash point, every image is
   rendered to a string, and the Sequential oracle re-renders every
   program-order prefix of the write sequence at every crash point. No
   recording, no hashing. Results use [Crash_space]'s own types so the
   two can be compared with [=]. *)

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

let walk ?config ?entry ?args ~bound ~seed ~task prog on_image =
  let heap, writes, _ = run_to ?config ?entry ?args ~task prog in
  let candidates = inflight_lines heap in
  let ncand = List.length candidates in
  let seed =
    seed lxor (match task with Crash_space.Point k -> k * 7919 | Exit -> 104729)
  in
  let subs, sampled = enumerate ~bound ~seed ncand in
  let image persist = Pmem.materialize heap ~persist in
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
        images :=
          { Crash_space.ci_task = task; ci_persisted = persist; ci_image = img }
          :: !images)
  in
  (heap, List.rev !images, pt.Crash_space.sampled)
