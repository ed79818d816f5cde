(** Thin socket client: one connection per request, line-delimited
    JSON — the [deepmc check --connect] path. *)

val request : sock:string -> Protocol.json -> (Protocol.json, string) result

val check :
  sock:string ->
  name:string ->
  model:Analysis.Model.t ->
  ?config:Analysis.Config.t ->
  text:string ->
  unit ->
  (Protocol.json, string) result
(** Submit a check request; [Ok] is the full ok-status response
    object, [Error] carries the server's (or transport's) message. Of
    [config], the protocol carries field sensitivity and persistent
    roots; the daemon checks under default bounds. *)

val shutdown : sock:string -> (unit, string) result
