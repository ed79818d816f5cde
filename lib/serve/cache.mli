(** The resident analyzer's two-level cross-run cache.

    Level A replays a stored summary for byte-identical resubmissions
    (text + parameters hashed; no parsing on a hit). Level B, on a
    changed text, re-parses and rebuilds the DSG (linear), fingerprints
    every function ({!Analysis.Fingerprint}), replays cached per-root
    results whose closure key is unchanged, and re-checks only the
    stale roots — the edited functions' memo-dependent callers. The
    merged warnings are byte-identical to a cold [Checker.check] of
    the same text. *)

type params = { model : Analysis.Model.t; config : Analysis.Config.t }

val default_params : ?config:Analysis.Config.t -> Analysis.Model.t -> params
(** [config] defaults to {!Analysis.Config.default}. *)

val params_sig : params -> string
(** Canonical signature of everything that can change checker output —
    the model plus {!Analysis.Config.signature}; folded into every cache
    key. *)

type summary = {
  sm_model : Analysis.Model.t;
  sm_warnings : Analysis.Warning.t list;
  sm_trace_count : int;
  sm_event_count : int;
  sm_peak_paths : int;
}

val summary_of_result : Analysis.Checker.result -> summary

type cache_level =
  | Hit  (** byte-identical resubmission (or all roots replayed) *)
  | Partial  (** some roots replayed, stale ones re-run *)
  | Miss  (** nothing reusable *)

val cache_level_name : cache_level -> string

type outcome = {
  summary : summary;
  level : cache_level;
  invalidated : string list;
      (** functions whose fingerprint changed since the last build *)
  stale : string list;  (** roots re-checked this request *)
  reused : string list;  (** roots replayed from the per-root cache *)
}

type t

val create : unit -> t

val memo_bound : int
(** 4096: the bound on every table of the cache, the level-A memo, the
    level-B table of per-program slots and each {!memo} alike; past it
    a table is dropped wholesale — sound, merely colder. *)

val parse : file:string -> string -> (Nvmir.Prog.t, string) result
(** Parse and validate a request's program: [Error] carries the parse
    error or the validation errors as every command reports them. *)

val check :
  t -> name:string -> params:params -> text:string -> (outcome, string) result
(** Check [text] under [params], reusing everything the caches allow.
    [name] identifies the logical program (watch mode: the file path)
    so successive versions share one incremental slot. [Error] on
    parse/validation failure; nothing is cached in that case. *)

(** {1 Raw request memo} — level A, and the commands with no per-root
    structure (crash-explore, inject): byte-identical resubmission
    replays the stored payload. *)

type 'a memo

val memo_create : unit -> 'a memo

val memo_find :
  'a memo ->
  key:string ->
  compute:(unit -> ('a, 'e) result) ->
  ('a * cache_level, 'e) result
(** The value stored under [key] ([Hit]), or [compute]'s, stored when it
    is [Ok] ([Miss]); an [Error] is returned and not stored. Bounded by
    {!memo_bound}. *)

val request_key : psig:string -> string -> string
(** Digest of parameters + raw text: the level-A/memo key. *)

val observe_latency : int -> unit
(** Feed the [serve.request_latency_ns] histogram. *)
