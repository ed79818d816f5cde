(* Thin client for `deepmc check --connect <sock>`: one connection,
   one line-delimited JSON request, one response. *)

let request ~sock (req : Protocol.json) : (Protocol.json, string) result =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Fmt.str "cannot connect to %s: %s" sock (Unix.error_message e))
    | () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          output_string oc (Protocol.to_line req ^ "\n");
          flush oc;
          match input_line ic with
          | exception End_of_file -> Error "connection closed before response"
          | line -> Protocol.parse line))

let check ~sock ~name ~model ?(config = Analysis.Config.default) ~text () :
    (Protocol.json, string) result =
  let req =
    Protocol.Obj
      ([
         ("cmd", Protocol.String "check");
         ("name", Protocol.String name);
         ("model", Protocol.String (Analysis.Model.to_string model));
         ("program", Protocol.String text);
       ]
      @ (if config.Analysis.Config.field_sensitive then []
         else [ ("field_sensitive", Protocol.Bool false) ])
      @
      match config.Analysis.Config.persistent_roots with
      | [] -> []
      | roots ->
        [
          ( "pmem_roots",
            Protocol.List
              (List.map
                 (fun (f, v) -> Protocol.String (f ^ ":" ^ v))
                 roots) );
        ])
  in
  match request ~sock req with
  | Error _ as e -> e
  | Ok resp -> (
    match Protocol.string_member "status" resp with
    | Some "ok" -> Ok resp
    | Some "error" ->
      Error
        (Option.value ~default:"unknown server error"
           (Protocol.string_member "error" resp))
    | _ -> Error "malformed response")

let shutdown ~sock : (unit, string) result =
  match request ~sock (Protocol.Obj [ ("cmd", Protocol.String "shutdown") ]) with
  | Error _ as e -> e
  | Ok _ -> Ok ()
