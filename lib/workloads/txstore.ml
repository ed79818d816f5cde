(* A transactional record store in the style of NStore [44]: fixed-width
   records updated under undo-log transactions (one transaction per
   operation), the substrate the YCSB benchmarks run against. *)

type t = {
  pmem : Runtime.Pmem.t;
  records : int; (* object id: [nrecords] records of [record_slots] *)
  nrecords : int;
}

let record_slots = 4 (* id, f1, f2, f3 *)

let create ?(nrecords = 4096) pmem =
  let tenv = Nvmir.Ty.env_create () in
  let records =
    Runtime.Pmem.alloc pmem ~name:"nstore_records" ~tenv ~persistent:true
      (Nvmir.Ty.Array (Nvmir.Ty.Int, nrecords * record_slots))
  in
  { pmem; records; nrecords }

(* Static source locations, built once as an instrumented binary's are,
   so an operation allocates none. *)
let locs = Array.init 46 (fun line -> Nvmir.Loc.make ~file:"txstore.ml" ~line)
let loc line = locs.(line)

let slot_of t key field = (key mod t.nrecords * record_slots) + field

let addr t key field =
  { Runtime.Pmem.obj_id = t.records; slot = slot_of t key field }

(* Transactional update of one field: begin, log, write, commit (the
   commit flushes and fences the logged range). *)
let update t key value =
  Runtime.Pmem.epoch_begin t.pmem ~loc:(loc 28) ();
  Runtime.Pmem.tx_begin t.pmem ~loc:(loc 29) ();
  Runtime.Pmem.tx_add t.pmem ~loc:(loc 30) ~obj_id:t.records
    ~first_slot:(slot_of t key 1) ~nslots:1 ();
  Runtime.Pmem.write t.pmem ~loc:(loc 31) (addr t key 1)
    (Runtime.Value.Vint value);
  Runtime.Pmem.tx_end t.pmem ~loc:(loc 32) ();
  Runtime.Pmem.epoch_end t.pmem ~loc:(loc 33) ()

(* Insert initializes the whole record in one transaction. *)
let insert t key value =
  Runtime.Pmem.epoch_begin t.pmem ~loc:(loc 37) ();
  Runtime.Pmem.tx_begin t.pmem ~loc:(loc 38) ();
  Runtime.Pmem.tx_add t.pmem ~loc:(loc 39) ~obj_id:t.records
    ~first_slot:(slot_of t key 0) ~nslots:record_slots ();
  Runtime.Pmem.write t.pmem ~loc:(loc 40) (addr t key 0)
    (Runtime.Value.Vint key);
  Runtime.Pmem.write t.pmem ~loc:(loc 41) (addr t key 1)
    (Runtime.Value.Vint value);
  Runtime.Pmem.write t.pmem ~loc:(loc 42) (addr t key 2)
    (Runtime.Value.Vint (value * 2));
  Runtime.Pmem.write t.pmem ~loc:(loc 43) (addr t key 3)
    (Runtime.Value.Vint (value + 1));
  Runtime.Pmem.tx_end t.pmem ~loc:(loc 44) ();
  Runtime.Pmem.epoch_end t.pmem ~loc:(loc 45) ()

let read t key = Runtime.Value.to_int (Runtime.Pmem.read t.pmem (addr t key 1))

(* Scan [len] consecutive records (YCSB workload E). *)
let scan t key len =
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc := !acc + Runtime.Value.to_int (Runtime.Pmem.read t.pmem (addr t (key + i) 1))
  done;
  !acc

let read_modify_write t key f = update t key (f (read t key))
