(* Stable content hashing for IR artifacts.

   FNV-1a over the pretty-printed text: the printer is the canonical
   serialization (parser round-trips through it in the tests), so two
   functions hash equal iff they print equal — including source
   locations, which warning messages embed, so any loc-visible edit
   changes the hash and invalidates dependent caches. 64-bit FNV keeps
   collisions negligible at corpus scale without pulling in Digest's
   MD5 (which would also work, but FNV folds incrementally without
   intermediate buffers). *)

type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let add_char h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let add_string h s =
  let h = ref h in
  String.iter (fun c -> h := add_char !h c) s;
  !h

let add_int h i =
  (* Fold all 8 bytes so small ints still perturb the high lanes. *)
  let h = ref h in
  for shift = 0 to 7 do
    let byte = (i lsr (shift * 8)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  !h

let empty = fnv_offset
let of_string s = add_string empty s

let combine a b =
  (* Mix b into a byte-by-byte; order-sensitive by construction. *)
  let h = ref a in
  for shift = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical b (shift * 8)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  !h

let to_hex = Fmt.str "%016Lx"
let equal = Int64.equal
let pp ppf h = Fmt.string ppf (to_hex h)
