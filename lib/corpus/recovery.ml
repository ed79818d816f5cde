(* Recovery corpus: base programs for the recovery tier (media
   corruption + recovery-path verification). These are NOT part of
   [Registry.all] — the static recall matrix and Table benches are
   pinned to the paper's corpus — but feed the recovery column of the
   injection matrix ([Evaluate.recovery_bases]) and its cram-pinned
   bench.

   Both bases share the same forward path: stage a two-field data
   region, checksum it, persist, then publish a generation marker.
   [main] invokes [recover] at startup before the forward path, as a
   real program would — on a fresh heap the guarded base rejects and
   the unguarded base replays zeros — which also unifies [recover]'s
   parameters with the pmem allocations in the points-to graph, so the
   mutation operators see its stores as persistent. The
   data region and the metadata deliberately live in different objects,
   so data-line and crc-line corruption stay independent of the
   configured cache-line width. The [guarded] base validates the
   region against the stored CRC before replaying it and is clean
   under the recovery tier; [unguarded] replays through plain loads
   and accepts every image — the new-class bug the static tier cannot
   see. *)

open Types

let forward_path =
  {|
struct jdata { d0: int, d1: int }
struct jmeta { crc: int, gen: int, applied: int }

func prepare(d: ptr jdata, m: ptr jmeta) {
entry:
  epoch_begin                    @ jrec.c:10
  store d->d0, 7                 @ jrec.c:11
  flush exact d->d0              @ jrec.c:12
  fence                          @ jrec.c:13
  store d->d1, 9                 @ jrec.c:14
  flush exact d->d1              @ jrec.c:15
  fence                          @ jrec.c:16
  c = crc object d               @ jrec.c:17
  store m->crc, c                @ jrec.c:18
  flush exact m->crc             @ jrec.c:19
  fence                          @ jrec.c:20
  epoch_end                      @ jrec.c:21
  epoch_begin                    @ jrec.c:22
  store m->gen, 1                @ jrec.c:23
  flush exact m->gen             @ jrec.c:24
  fence                          @ jrec.c:25
  epoch_end                      @ jrec.c:26
  ret
}

func main() {
entry:
  d = alloc pmem jdata
  m = alloc pmem jmeta
  r = call recover(d, m)
  call prepare(d, m)
  ret
}
|}

let guarded =
  {
    name = "journal_recover_crc";
    framework = Pmfs;
    description =
      "Journal recovery that validates the data region against its stored \
       CRC before replaying it; clean under the recovery tier";
    entry = "main";
    entry_args = [];
    roots = [ "main"; "recover" ];
    expectations = [];
    source =
      forward_path
      ^ {|
func recover(d: ptr jdata, m: ptr jmeta) -> int {
entry:
  ok = crc_check object d, m->crc  @ jrec.c:42
  br ok, replay, reject
replay:
  a = load d->d0                 @ jrec.c:45
  b = load d->d1                 @ jrec.c:46
  t = a + b
  store m->applied, t            @ jrec.c:48
  flush exact m->applied         @ jrec.c:49
  fence                          @ jrec.c:50
  store m->gen, 1                @ jrec.c:51
  flush exact m->gen             @ jrec.c:52
  fence                          @ jrec.c:53
  ret 0
reject:
  ret 1
}
|};
    fixed_source = None;
  }

let unguarded =
  {
    name = "journal_recover";
    framework = Pmfs;
    description =
      "Journal recovery that replays the data region through plain loads \
       and accepts every image: unguarded reads and silent corruption \
       acceptance";
    entry = "main";
    entry_args = [];
    roots = [ "main"; "recover" ];
    expectations = [];
    source =
      forward_path
      ^ {|
func recover(d: ptr jdata, m: ptr jmeta) -> int {
entry:
  a = load d->d0                 @ jrec.c:32
  b = load d->d1                 @ jrec.c:33
  t = a + b
  store m->applied, t            @ jrec.c:35
  flush exact m->applied         @ jrec.c:36
  fence                          @ jrec.c:37
  ret 0
}
|};
    fixed_source = None;
  }

let programs = [ guarded; unguarded ]
