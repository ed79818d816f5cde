(** The false-positive suppression database §5.4 proposes as future
    work: user-validated benign warnings are recorded and filtered from
    subsequent reports. Entries match by rule (optional), file, and line
    (optional; absent matches the whole file). *)

type entry = {
  rule : Analysis.Warning.rule_id option;  (** [None] = any rule *)
  file : string;
  line : int option;  (** [None] = whole file *)
  reason : string;
}

type t

val create : unit -> t
val entries : t -> entry list
val add : t -> entry -> unit

val entry :
  ?rule:Analysis.Warning.rule_id -> ?line:int -> file:string -> string -> entry

val matches : entry -> Analysis.Warning.t -> bool

val filter :
  t ->
  Analysis.Warning.t list ->
  Analysis.Warning.t list * (Analysis.Warning.t * entry) list
(** (kept, suppressed-with-entry). *)

val learn : t -> Analysis.Warning.t -> reason:string -> unit
(** Record a validated false positive — the §5.4 learning loop. *)

(** {1 On-disk format} — one entry per line: [rule file[:line] reason];
    ['*'] matches any rule; ['#'] starts a comment *)

exception Parse_error of string * int

val to_string : t -> string
val of_string : string -> t
val load : string -> t
