(** Trace collection (§4.3): one depth-first walk per root over its
    expansion tree — the root's bounded CFG paths with callee traces
    spliced in at call sites (Figure 11) — stepping a caller-supplied
    persistent state once per tree edge. [collect] and [stream] are
    the list-level views of the same walk. *)

type t = Event.t list

val events_of_instr : Dsa.Dsg.t -> fname:string -> Nvmir.Instr.t -> Event.t list
(** The events one instruction contributes; writes and flushes the DSG
    proves volatile contribute nothing. *)

val default_roots : Nvmir.Prog.t -> string list
(** The roots a rootless {!stream} enumerates, in the same order:
    call-graph roots, or every function when all are called.
    Incremental callers use this to key per-root cache entries. *)

type plan
(** Every table a walk reads: per-block events, per-function CFGs and
    whether each function has a path, and the bounded-unrolling tables
    of the functions on call cycles. Built once per program; walks
    only read it, so distinct roots may be walked from distinct domains
    (compress the arena first — see {!Dsa.Arena.compress}). *)

val plan : ?config:Config.t -> Dsa.Dsg.t -> Nvmir.Prog.t -> plan

val roots : plan -> string list
(** {!default_roots} of the planned program. *)

type stats = {
  mutable peak_live : int;
      (** high-water mark of live root-CFG frames: the block walked and
          the else branches pending above it (a root that is also a
          callee counts its own CFG paths; a cyclic root its traces) *)
  mutable paths : int;  (** paths walked *)
  mutable events : int;  (** non-marker events across walked paths *)
}

val walk :
  plan -> string -> step:('a -> Event.t -> 'a) -> 'a -> leaf:('a -> unit) -> stats
(** [walk plan root ~step init ~leaf] steps [init] along every path of
    [root]'s expansion tree, in order, and calls [leaf] with the state
    at the end of each of its first [max_paths] paths. Paths that share
    a prefix share its steps. An undefined root has no paths. *)

type source = {
  root : string;
  s_stats : stats;  (** filled when [traces] is first forced *)
  traces : t Seq.t;
}

val stream :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  source list
(** One trace sequence per root; [roots] defaults to {!default_roots}.
    The plan is built before this returns; forcing a sequence walks its
    root and lists the paths. *)

val collect :
  ?config:Config.t ->
  ?roots:string list ->
  Dsa.Dsg.t ->
  Nvmir.Prog.t ->
  (string * t list) list
(** Every root's paths, as lists. *)

val pp : t Fmt.t

val length : t -> int
(** Non-marker events. *)
