(* Machine-speed reference. On a shared host the same code runs 10-40%
   slower for stretches of a fraction of a second to minutes, which no
   amount of work per run averages out. So the loop runs a fixed reference
   kernel every [interval_ns] (between requests, outside their timing) and
   the end-to-end times are reported at the host's nominal speed: each
   request's time is multiplied by [nominal_ms] over the median kernel
   time around it. The raw times are kept beside the normalized ones.

   The kernel is random read-modify-write over a 4 MiB table, the
   standard library only, so no change to the program under test moves
   it, and a change that makes a request faster or slower moves the
   reported time by the same share. It allocates nothing, so it never
   pays for the program's garbage, and it first reads its whole table
   untimed, so what it times does not depend on how much of the table
   the program evicted from the caches since the last sample: a change
   to the program's heap size or allocation rate leaves it alone. The
   table lives outside the OCaml heap, so it does not change how far the
   GC lets the program's heap grow either. *)

(* The kernel's time on the host the bounds were set on (a 2-vCPU Xeon
   VM) in its fast stretches. *)
let nominal_ms = 5.0

let interval_ns = 100_000_000L
let table = Bigarray.(Array1.create int c_layout (1 lsl 19))
let () = Bigarray.Array1.fill table 0

(* The table is resident from here to exit, so it adds exactly this much
   to the process's peak resident set. *)
let table_mib = float_of_int (Bigarray.Array1.size_in_bytes table) /. 1048576.

let kernel () =
  let warm = ref 0 in
  for j = 0 to Bigarray.Array1.dim table - 1 do
    warm := !warm lxor Bigarray.Array1.unsafe_get table j
  done;
  ignore (Sys.opaque_identity !warm);
  let t0 = Tracer.now () in
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref 0x2545F491 in
  for i = 1 to 1_000_000 do
    x := ((!x * 0x5851F42D) + 1) land 0x3FFFFFFF;
    let j = (!x lsr 5) land mask in
    Bigarray.Array1.unsafe_set table j (Bigarray.Array1.unsafe_get table j + i)
  done;
  Int64.to_float (Int64.sub (Tracer.now ()) t0) /. 1e6

(* [f ()], which returns a value and the time it took, and that time at
   nominal speed: scaled by the nominal kernel time over the mean of the
   kernel times just before and just after [f]. *)
let nominal f =
  let k0 = kernel () in
  let ((_, dt) as r) = f () in
  let k1 = kernel () in
  (r, dt *. nominal_ms *. 2. /. (k0 +. k1))

(* Kernel samples of one loop: (requests completed before it, ms). *)
type t = { mutable samples : (int * float) list; mutable next : int64 }

let create () = { samples = []; next = 0L }

let maybe_sample t ~done_ =
  if Int64.compare (Tracer.now ()) t.next >= 0 then begin
    t.samples <- (done_, kernel ()) :: t.samples;
    t.next <- Int64.add (Tracer.now ()) interval_ns
  end

let median_ms t = Stats.median (List.map snd t.samples)

(* The factor for each of [n] requests: nominal over the median of the
   five kernel samples nearest to the request (three before it, two
   after). *)
let factors t n =
  let a = Array.of_list (List.rev t.samples) in
  let m = Array.length a in
  if m = 0 then Array.make n 1.
  else
    let around k =
      let lo = max 0 (k - 3) and hi = min (m - 1) (k + 1) in
      nominal_ms
      /. Stats.median (List.init (hi - lo + 1) (fun j -> snd a.(lo + j)))
    in
    let k = ref 0 in
    Array.init n (fun i ->
        while !k < m && fst a.(!k) <= i do
          incr k
        done;
        around !k)
