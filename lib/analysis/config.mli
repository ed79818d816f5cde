(** The one analysis-options record: DSA sensitivity plus path bounds.
    [loop_bound] (10) and [recursion_bound] (5) follow §4.3;
    [max_paths] and [expansion_fanout] cap the interprocedural
    cross-product of merged traces. *)

type t = {
  loop_bound : int;  (** times a back edge may be taken per path *)
  recursion_bound : int;  (** recursion unrolling depth *)
  max_paths : int;  (** paths enumerated per function *)
  expansion_fanout : int;  (** callee traces spliced per call site *)
  field_sensitive : bool;
      (** DSA distinguishes struct fields (default true; [false] is the
          object-granular ablation) *)
  offset_sensitive : bool;
      (** DSA tracks ref-typed [Binop] results in the {!Dsa.Aaddr.offset}
          lattice (default true; [false] reproduces the historical §5.4
          pointer-arith blind spot) *)
  persistent_roots : (string * string) list;
      (** interface annotations: (function, variable) pairs known to
          reference NVM (default none) *)
}

val default : t

val build_dsg : t -> Nvmir.Prog.t -> Dsa.Dsg.t
(** {!Dsa.Dsg.build} under this record's DSA fields. *)

val signature : t -> string
(** Canonical text of every field (persistent roots sorted): equal
    signatures mean equal checker output, so cache keys derive from
    it. *)

val pp : t Fmt.t
