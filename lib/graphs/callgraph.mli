(** Call graphs over IR programs. {!postorder} visits callees before
    callers — the order both the DSA bottom-up phase (§4.2) and
    interprocedural trace merging (§4.3) require. {!of_prog} looks each
    call edge up once and computes the postorder, the SCCs and the
    cyclic functions up front; the queries only read them. *)

type t

val of_prog : Nvmir.Prog.t -> t
val callees : t -> string -> string list
val callers : t -> string -> string list
val is_defined : t -> string -> bool

val roots : t -> string list
(** Functions never called from within the program: analysis roots. *)

val analysis_roots : t -> string list
(** {!roots}, or every defined function when all are called: the
    roots a rootless trace collection enumerates. *)

val postorder : t -> string list
(** Every (defined) callee precedes its callers; recursion cycles are
    broken at the revisit point. Covers all defined functions. The
    DFS starts from {!analysis_roots}, in order. *)

val sccs : t -> string list list
(** Tarjan's strongly-connected components, callees-first. *)

val cyclic : t -> string list
(** The functions on call cycles — every member of a component of
    several functions, and every function that calls itself — in
    {!sccs} order. *)

val is_recursive : t -> string -> bool
(** Is the function in {!cyclic}? *)

val pp : t Fmt.t
