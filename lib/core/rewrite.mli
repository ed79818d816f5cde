(** IR surgery utilities for the automated fixer: locate instructions by
    source location, insert/remove/replace/move instructions. Every
    operation returns a fresh program. *)

type cursor = { in_func : string; in_block : string; index : int }

val find_at_loc :
  ?pred:(Nvmir.Instr.t -> bool) ->
  Nvmir.Prog.t ->
  Nvmir.Loc.t ->
  (cursor * Nvmir.Instr.t) option
(** First instruction at [loc] satisfying [pred]; the predicate
    disambiguates unannotated code where many instructions share
    [Loc.none]. *)

val map_funcs : Nvmir.Prog.t -> (Nvmir.Func.t -> Nvmir.Func.t) -> Nvmir.Prog.t

val map_block :
  Nvmir.Prog.t ->
  in_func:string ->
  in_block:string ->
  (Nvmir.Instr.t list -> Nvmir.Instr.t list) ->
  Nvmir.Prog.t

val insert_after : Nvmir.Prog.t -> cursor -> Nvmir.Instr.t list -> Nvmir.Prog.t
val insert_before : Nvmir.Prog.t -> cursor -> Nvmir.Instr.t list -> Nvmir.Prog.t

val append_to_block :
  Nvmir.Prog.t -> in_func:string -> in_block:string -> Nvmir.Instr.t list ->
  Nvmir.Prog.t
(** Before the block's terminator. *)

val remove_at : Nvmir.Prog.t -> cursor -> Nvmir.Prog.t
val replace_at : Nvmir.Prog.t -> cursor -> Nvmir.Instr.t -> Nvmir.Prog.t

val nearest_store_before :
  Nvmir.Prog.t -> cursor -> base:string -> Nvmir.Place.t option
(** The closest preceding store in the same block writing through
    [base]; used to narrow whole-object flushes. *)

val predecessors : Nvmir.Prog.t -> in_func:string -> label:string -> string list

val block_stores_to :
  Nvmir.Prog.t -> in_func:string -> label:string -> base:string -> bool
