(** A PMTest-like baseline checker for the effort/coverage comparison:
    annotation-driven (only checks functions the developer listed),
    generic rules only (unflushed writes, missing barriers), no model
    awareness, object-granular. *)

val generic_rules : Analysis.Warning.rule_id list

type result = {
  warnings : Analysis.Warning.t list;
  annotated : string list;
}

val check : annotated:string list -> Nvmir.Prog.t -> result

val annotation_sites : Nvmir.Prog.t -> annotated:string list -> int
(** The annotation burden: one checker call per persistent operation in
    every annotated function, PMTest-style. *)
