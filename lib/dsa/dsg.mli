(** Data Structure Graph construction (§4.2): local, bottom-up, and
    top-down phases producing a field-sensitive, persistence-aware alias
    summary of the whole program.

    Deviation from the paper (see DESIGN.md): calls unify argument and
    parameter nodes instead of cloning callee graphs, trading context
    sensitivity for simplicity; field sensitivity and offset
    sensitivity are build switches so the evaluation can ablate
    them. *)

type t

val build :
  ?field_sensitive:bool ->
  ?offset_sensitive:bool ->
  ?persistent_roots:(string * string) list ->
  Nvmir.Prog.t ->
  t
(** Run all three phases. [persistent_roots] are interface annotations:
    (function, variable) pairs known to reference NVM.
    [offset_sensitive] (default true) tracks ref-typed [Binop] results
    as element offsets in the {!Aaddr.offset} congruence lattice;
    ablating it reproduces the historical §5.4 pointer-arith blind
    spot (used by the injection/fuzzing benches to regenerate the
    legacy false-negative corpus). *)

val field_sensitive : t -> bool
val offset_sensitive : t -> bool
val arena : t -> Arena.t

val callgraph : t -> Nvmir.Prog.t -> Graphs.Callgraph.t
(** [callgraph t prog] is [prog]'s call graph: the one the build
    traversed when [prog] is (physically) the program [t] was built
    from, so later whole-program passes (trace planning, fingerprints)
    do not build their own, and a fresh one for any other program. *)

val resolve : t -> fname:string -> Nvmir.Place.t -> Aaddr.t
(** Resolve a place to an abstract address, creating conservative
    unknown nodes for unresolved pointer hops. *)

val resolve_extent :
  t -> fname:string -> Nvmir.Place.t -> Nvmir.Instr.extent -> Aaddr.t
(** Like {!resolve}, widened by a flush extent ([Object] covers the
    whole containing object). *)

val is_persistent_addr : t -> Aaddr.t -> bool
val is_persistent_place : t -> fname:string -> Nvmir.Place.t -> bool

val node_of_var : t -> fname:string -> string -> int option
(** The canonical node a variable points to, if bound. *)

val may_alias : t -> fname:string -> Nvmir.Place.t -> Nvmir.Place.t -> bool
val modified_fields : t -> int -> Arena.field_key list

val function_view : t -> fname:string -> int list
(** The persistent nodes a function's variables can reach: the
    per-function DSG of Figure 10. *)

val pp_function_view : (t * string) Fmt.t

val summary_hash : t -> fname:string -> Nvmir.Chash.t
(** Content key over the function's DSG slice: every persistent node it
    can reach, with canonical id, pointee type, persistence, sorted
    mod/ref field sets, and outgoing edges. Raw canonical ids are
    digested on purpose: warning text embeds them ({!Aaddr.pp}), so a
    cached warning may only be replayed when ids match exactly — an id
    shift across rebuilds is a spurious cache miss, never a wrong hit.
    Nonzero binding offsets are digested too: they change how the
    function's places resolve, so a warm hit across an offset change
    would be stale. *)
