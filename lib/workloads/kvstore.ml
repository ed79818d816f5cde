(* A persistent key-value store in the style of persistent Memcached
   [39]: an open-addressing hash table living in one NVM region,
   epoch-persistent updates (one epoch per mutation, closed by a
   flush+fence of the touched entry).

   Entries are two slots (key, value); key slot 0 means empty. The store
   issues exactly the persistent operations the dynamic checker
   instruments, so running a memslap-style load against it with the
   checker attached reproduces the Figure 12 overhead measurement. *)

type t = {
  pmem : Runtime.Pmem.t;
  table : int; (* object id of the hash table region *)
  capacity : int; (* number of entries *)
  mutable size : int;
}

let entry_slots = 2

let create ?(capacity = 4096) pmem =
  let tenv = Nvmir.Ty.env_create () in
  let table =
    Runtime.Pmem.alloc pmem ~name:"kv_table" ~tenv ~persistent:true
      (Nvmir.Ty.Array (Nvmir.Ty.Int, capacity * entry_slots))
  in
  { pmem; table; capacity; size = 0 }

(* Static source locations, built once as an instrumented binary's are,
   so an operation allocates none. *)
let locs = Array.init 83 (fun line -> Nvmir.Loc.make ~file:"kvstore.ml" ~line)
let loc line = locs.(line)

let key_addr t idx = { Runtime.Pmem.obj_id = t.table; slot = idx * entry_slots }
let val_addr t idx =
  { Runtime.Pmem.obj_id = t.table; slot = (idx * entry_slots) + 1 }

let hash t k = (k * 2654435761) land max_int mod t.capacity

(* Linear probing; returns the index holding [key], or the first empty
   index, or None when the table is full. *)
let probe t key =
  let rec go i tries =
    if tries >= t.capacity then None
    else
      let stored =
        Runtime.Value.to_int (Runtime.Pmem.read t.pmem (key_addr t i))
      in
      if stored = key || stored = 0 then Some i
      else go ((i + 1) mod t.capacity) (tries + 1)
  in
  go (hash t key) 0

(* Mutations run as one epoch: write entry, flush it, fence, close. *)
let set t key value =
  match probe t key with
  | None -> false
  | Some i ->
    let was_empty =
      Runtime.Value.to_int (Runtime.Pmem.read t.pmem (key_addr t i)) = 0
    in
    Runtime.Pmem.epoch_begin t.pmem ~loc:(loc 40) ();
    Runtime.Pmem.write t.pmem ~loc:(loc 41) (key_addr t i)
      (Runtime.Value.Vint key);
    Runtime.Pmem.write t.pmem ~loc:(loc 42) (val_addr t i)
      (Runtime.Value.Vint value);
    Runtime.Pmem.flush_range t.pmem ~loc:(loc 43) ~obj_id:t.table
      ~first_slot:(i * entry_slots) ~nslots:entry_slots ();
    Runtime.Pmem.fence t.pmem ~loc:(loc 44) ();
    Runtime.Pmem.epoch_end t.pmem ~loc:(loc 45) ();
    if was_empty then t.size <- t.size + 1;
    true

let get t key =
  match probe t key with
  | None -> None
  | Some i ->
    let stored =
      Runtime.Value.to_int (Runtime.Pmem.read t.pmem (key_addr t i))
    in
    if stored = key then
      Some (Runtime.Value.to_int (Runtime.Pmem.read t.pmem (val_addr t i)))
    else None

(* Read-modify-write: read under no epoch, then a mutation epoch. *)
let rmw t key f =
  match get t key with
  | None -> set t key (f 0)
  | Some v -> set t key (f v)

let delete t key =
  match probe t key with
  | None -> false
  | Some i ->
    let stored =
      Runtime.Value.to_int (Runtime.Pmem.read t.pmem (key_addr t i))
    in
    if stored <> key then false
    else begin
      Runtime.Pmem.epoch_begin t.pmem ~loc:(loc 78) ();
      Runtime.Pmem.write t.pmem ~loc:(loc 79) (key_addr t i)
        (Runtime.Value.Vint 0);
      Runtime.Pmem.flush_range t.pmem ~loc:(loc 80) ~obj_id:t.table
        ~first_slot:(i * entry_slots) ~nslots:1 ();
      Runtime.Pmem.fence t.pmem ~loc:(loc 81) ();
      Runtime.Pmem.epoch_end t.pmem ~loc:(loc 82) ();
      t.size <- t.size - 1;
      true
    end

let size t = t.size
let capacity t = t.capacity
