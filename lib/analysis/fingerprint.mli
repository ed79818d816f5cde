(** Content fingerprints for incremental re-analysis.

    Per-function fingerprint = body hash ({!Nvmir.Func.content_hash})
    combined with the function's DSG slice ({!Dsa.Dsg.summary_hash});
    per-root closure key = order-independent digest of the root's
    call-graph closure fingerprints. Equal closure key means every
    input the checker reads for that root is byte-identical,
    so a cached {!Checker.per_root} may be replayed verbatim. Tables
    are rebuilt per program build (parse + DSG are linear); comparing
    against the previous table yields the invalidation front. *)

type table

val build : Dsa.Dsg.t -> Nvmir.Prog.t -> table
(** Fingerprint every function of [prog] against [dsg] (which must be
    the DSG of exactly this build) and key every default root. *)

val roots : table -> string list
(** {!Trace.default_roots} order — the cold run's enumeration order. *)

val root_key : table -> string -> Nvmir.Chash.t option

val changed_functions : old:table -> table -> string list
(** Functions whose fingerprint differs from (or is absent in) [old];
    sorted. The invalidation front an edit pushes. *)
