(** Graphviz (dot) export of CFGs and call graphs, for visual inspection
    of the analysis inputs. *)

val of_cfg : Cfg.t -> string
(** A dot digraph whose node labels hold the block bodies. *)

val of_callgraph : Callgraph.t -> Nvmir.Prog.t -> string
(** The whole program's call graph; analysis roots are highlighted. *)
