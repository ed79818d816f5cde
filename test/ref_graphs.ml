(* Reference graph algorithms: the string-keyed call graph the front
   end used before it numbered functions. [Graphs.Callgraph] must
   agree with it exactly — same lists, in the same order — since the
   DSA visits functions and the trace plan unrolls recursion in these
   orders, and node ids follow from that. *)

let callees prog name =
  match Nvmir.Prog.find_func prog name with
  | Some f -> Nvmir.Func.callees f
  | None -> []

let is_defined prog name = Nvmir.Prog.find_func prog name <> None

(* Each callee's callers in declaration order, appended one by one. *)
let callers prog =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let name = Nvmir.Func.name f in
      List.iter
        (fun c ->
          let old = Option.value ~default:[] (Hashtbl.find_opt tbl c) in
          if not (List.mem name old) then Hashtbl.replace tbl c (old @ [ name ]))
        (Nvmir.Func.callees f))
    (Nvmir.Prog.funcs prog);
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

let roots prog =
  let callers = callers prog in
  List.filter (fun name -> callers name = []) (Nvmir.Prog.func_names prog)

let postorder prog =
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec go name =
    if is_defined prog name && not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      List.iter go (callees prog name);
      out := name :: !out
    end
  in
  let starts =
    match roots prog with [] -> Nvmir.Prog.func_names prog | rs -> rs
  in
  List.iter go starts;
  List.iter go (Nvmir.Prog.func_names prog);
  List.rev !out

let sccs prog =
  let index = Hashtbl.create 16 and lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if is_defined prog w then
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees prog v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter
    (fun name -> if not (Hashtbl.mem index name) then strongconnect name)
    (Nvmir.Prog.func_names prog);
  List.rev !components

(* The functions the trace plan unrolls: members of recursive SCCs,
   singletons only when they call themselves. *)
let cyclic prog =
  List.concat_map
    (function
      | [ f ] when not (List.mem f (callees prog f)) -> []
      | fs -> fs)
    (sccs prog)

let is_recursive prog =
  let sccs = sccs prog in
  fun name ->
    List.mem name (callees prog name)
    || List.exists (fun scc -> List.length scc > 1 && List.mem name scc) sccs
