(* The shadow segment (§4.4): mirrors the persistent address space and
   records, per slot, the history of strand accesses — which strand last
   wrote it and which strands have read it since. DeepMC customizes
   ThreadSanitizer with exactly this structure: a shadow that mirrors
   the address space directly, populated only for addresses touched
   inside annotated regions, which is what keeps the tracking cheap.

   Ordering representation: persist barriers in the runtime are global
   synchronization points, so happens-before admits a scalar fast path
   (in the spirit of FastTrack's epochs): every access is stamped with
   the global barrier count at the time it executed, every region with
   the barrier count at which it began. An earlier access (s, f)
   happens-before a later access by a region begun at barrier count b
   iff they are by the same strand or b > f (a barrier intervened). No
   vector clocks are kept: the scalar form is the whole ordering.

   Layout: one segment per heap. An object's history is per-slot arrays
   (writer strand, writer fence, writer location, reads since the last
   write) cut into pages of [page_size] slots; the page directory is
   sized from the object's size, never from a slot index, and a page is
   allocated when one of its slots is first touched, so a large object
   touched in a few places costs a few pages. A writer fence of -1 marks
   a slot never written (barrier counts are never negative, while strand
   numbers come from the program). A one-entry cache remembers the last
   object, which is the common case: a store touches one object many
   times in a row.

   Concurrency: none inside the segment. One heap is driven from one
   domain, and its segment belongs to that heap's listener. *)

type access = {
  strand : int;
  fence_at : int; (* global barrier count when the access executed *)
  loc : Nvmir.Loc.t;
}

(* Is previous access [a] ordered before an access of [strand] whose
   region began at barrier count [begin_fence]? *)
let ordered_before (a : access) ~strand ~begin_fence =
  a.strand = strand || begin_fence > a.fence_at

type page = {
  w_strand : int array;
  w_fence : int array; (* -1: never written *)
  w_loc : Nvmir.Loc.t array;
  reads : access list array; (* reads since the last write, newest first *)
}

let page_bits = 8
let page_size = 1 lsl page_bits

(* The directory entry of a page no access has touched yet. *)
let no_page = { w_strand = [||]; w_fence = [||]; w_loc = [||]; reads = [||] }

type obj = { id : int; size : int; pages : page array }

module Objs = Hashtbl.Make (Int)

type t = {
  obj_size : int -> int;
  objs : obj Objs.t;
  mutable last : obj; (* the last object looked up *)
  mutable cells : int; (* slots touched by a write or a read *)
}

let no_obj = { id = -1; size = 0; pages = [||] }

let create ~obj_size =
  { obj_size; objs = Objs.create 16; last = no_obj; cells = 0 }

let m_writes =
  Obs.Metrics.counter "shadow.writes" ~desc:"shadow-segment write records"

let m_reads =
  Obs.Metrics.counter "shadow.reads" ~desc:"shadow-segment read records"

let find t obj_id =
  if t.last.id = obj_id then t.last
  else begin
    let o =
      match Objs.find_opt t.objs obj_id with
      | Some o -> o
      | None ->
        let size = t.obj_size obj_id in
        let o =
          {
            id = obj_id;
            size;
            pages = Array.make ((size + page_size - 1) lsr page_bits) no_page;
          }
        in
        Objs.replace t.objs obj_id o;
        o
    in
    t.last <- o;
    o
  end

let check_slot (o : obj) slot =
  if slot < 0 || slot >= o.size then
    invalid_arg
      (Fmt.str "Shadow: slot %d outside obj%d's %d slot(s)" slot o.id o.size)

(* The page holding [slot], allocated on first touch. *)
let page o slot =
  let n = slot lsr page_bits in
  let p = Array.unsafe_get o.pages n in
  if p != no_page then p
  else begin
    let len = min page_size (o.size - (n lsl page_bits)) in
    let p =
      {
        w_strand = Array.make len 0;
        w_fence = Array.make len (-1);
        w_loc = Array.make len Nvmir.Loc.none;
        reads = Array.make len [];
      }
    in
    o.pages.(n) <- p;
    p
  end

let writer p i =
  { strand = p.w_strand.(i); fence_at = p.w_fence.(i); loc = p.w_loc.(i) }

(* The previous writer races with an access by [strand] in a region
   begun at [begin_fence] unless it is ordered before it. *)
let writer_races p i ~strand ~begin_fence =
  let f = p.w_fence.(i) in
  f >= 0 && p.w_strand.(i) <> strand && begin_fence <= f

(* RAW conflicts with the unordered [reads], in list order. *)
let rec raws acc ~strand ~begin_fence = function
  | [] -> List.rev acc
  | r :: rest ->
    let acc =
      if ordered_before r ~strand ~begin_fence then acc else `Raw r :: acc
    in
    raws acc ~strand ~begin_fence rest

(* Record a write; returns the conflicting accesses, if any: a WAW race
   with the previous writer and RAW races with readers not ordered
   before this write. [begin_fence] is the barrier count at which the
   writing region began. *)
let record_write t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Waw of access | `Raw of access ] list =
  let o = find t obj_id in
  check_slot o slot;
  Obs.Metrics.incr m_writes;
  let p = page o slot in
  let i = slot land (page_size - 1) in
  let reads = p.reads.(i) in
  if p.w_fence.(i) < 0 && reads = [] then t.cells <- t.cells + 1;
  let strand = a.strand in
  let raws = raws [] ~strand ~begin_fence reads in
  let conflicts =
    if writer_races p i ~strand ~begin_fence then `Waw (writer p i) :: raws
    else raws
  in
  p.w_strand.(i) <- strand;
  p.w_fence.(i) <- a.fence_at;
  p.w_loc.(i) <- a.loc;
  p.reads.(i) <- [];
  conflicts

(* Record a read; returns a RAW conflict when the read races with the
   previous write (the reader cannot know whether it observes pre- or
   post-persist data). *)
let record_read t ~obj_id ~slot ~begin_fence (a : access) :
    [ `Raw of access ] option =
  let o = find t obj_id in
  check_slot o slot;
  Obs.Metrics.incr m_reads;
  let p = page o slot in
  let i = slot land (page_size - 1) in
  let reads = p.reads.(i) in
  if p.w_fence.(i) < 0 && reads = [] then t.cells <- t.cells + 1;
  p.reads.(i) <- a :: reads;
  if writer_races p i ~strand:a.strand ~begin_fence then
    Some (`Raw (writer p i))
  else None

let ever_written t ~obj_id ~slot =
  let o = find t obj_id in
  check_slot o slot;
  let p = Array.unsafe_get o.pages (slot lsr page_bits) in
  p != no_page && p.w_fence.(slot land (page_size - 1)) >= 0

let tracked_cells t = t.cells
