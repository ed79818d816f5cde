(** Trace collection (§4.3): bounded depth-first path enumeration per
    function, then memoized splicing of callee traces into callers at
    call sites (Figure 11). [stream] enumerates a root's paths lazily
    with O(live paths) peak memory; [collect] forces them into lists. *)

type t = Event.t list

val events_of_instr : Dsa.Dsg.t -> fname:string -> Nvmir.Instr.t -> Event.t list
(** The events one instruction contributes; writes and flushes the DSG
    proves volatile contribute nothing. *)

val default_roots : Nvmir.Prog.t -> string list
(** The roots a rootless {!stream} enumerates, in the same order:
    call-graph roots, or every function when all are called.
    Incremental callers use this to key per-root cache entries. *)

type stats = {
  mutable peak_live : int;
      (** high-water mark of simultaneously-live path frames *)
  mutable paths : int;  (** paths yielded so far *)
  mutable events : int;  (** non-marker events across yielded paths *)
}

type source = {
  root : string;
  s_stats : stats;  (** updated as [traces] is forced *)
  traces : t Seq.t;
}

val stream :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  source list
(** One lazy trace sequence per root; [roots] defaults to
    {!default_roots}. All DSG resolution happens before this returns;
    forcing the sequences only reads shared state, so distinct roots may
    be consumed from distinct domains (compress the arena first — see
    {!Dsa.Arena.compress}). Each sequence is
    single-shot per domain: it shares memoized suffixes internally but
    the intra-procedural walk restarts if re-forced from the head. *)

val collect :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  (string * t list) list
(** {!stream}, every root's sequence forced into a list. *)

val pp : t Fmt.t

val length : t -> int
(** Non-marker events. *)
