(* Call graphs over IR programs (step 1 of Figure 8). Nodes are function
   names; edges are direct call sites. External functions — callees with
   no definition in the program, e.g. framework primitives modeled as IR
   instructions elsewhere — appear as leaf nodes.

   [postorder] visits callees before callers, the order both the DSA
   bottom-up phase (§4.2) and interprocedural trace merging (§4.3)
   require. Tarjan's SCC algorithm groups mutually recursive functions
   so recursion can be depth-bounded.

   Everything is built once, in time linear in the call edges (each
   function's callee list aside, which is sorted): defined functions are
   numbered in declaration order, the traversals run over int arrays,
   and [postorder], [sccs] and [cyclic] are computed when the graph is,
   so the DSA and the trace plan that share one graph pay for them
   once. *)

type t = {
  names : string array; (* defined functions, declaration order *)
  index : (string, int) Hashtbl.t; (* defined function -> its number *)
  callees : string list array; (* sorted, undefined callees included *)
  callers : (string, string list) Hashtbl.t; (* declaration order *)
  roots : string list;
  postorder : string list;
  sccs : string list list;
  cyclic : string list; (* functions on call cycles, in [sccs] order *)
  on_cycle : bool array;
}

(* Preorder DFS from each start, callees in order; each function is
   finished once, callees before callers. *)
let postorder_of names succ starts =
  let visited = Array.make (Array.length names) false in
  let out = ref [] in
  let rec go i =
    if not visited.(i) then begin
      visited.(i) <- true;
      Array.iter go succ.(i);
      out := names.(i) :: !out
    end
  in
  List.iter go starts;
  (* pick up functions only reachable through cycles *)
  Array.iteri (fun i _ -> go i) names;
  List.rev !out

(* Tarjan's strongly-connected components; components are emitted in
   reverse topological order (callees first), matching [postorder],
   each listing its functions in the order they were first reached. *)
let sccs_of succ =
  let n = Array.length succ in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  Array.iteri (fun v _ -> if index.(v) < 0 then strongconnect v) succ;
  List.rev !components

let of_prog (prog : Nvmir.Prog.t) =
  let funcs = Array.of_list (Nvmir.Prog.funcs prog) in
  let n = Array.length funcs in
  let names = Array.map Nvmir.Func.name funcs in
  let index = Hashtbl.create n in
  Array.iteri (fun i name -> Hashtbl.add index name i) names;
  let callees = Array.map Nvmir.Func.callees funcs in
  (* one lookup per call edge: defined callees get int successors and
     int caller lists, undefined ones a caller list by name. Callers are
     consed newest first, then reversed; [Func.callees] is
     duplicate-free, so each caller appears once per callee. *)
  let succ = Array.make n [||] and rev_callers = Array.make n [] in
  let external_callers = Hashtbl.create 8 in
  Array.iteri
    (fun i cs ->
      succ.(i) <-
        Array.of_list
          (List.filter_map
             (fun c ->
               match Hashtbl.find_opt index c with
               | Some j ->
                 rev_callers.(j) <- names.(i) :: rev_callers.(j);
                 Some j
               | None ->
                 let old =
                   Option.value ~default:[] (Hashtbl.find_opt external_callers c)
                 in
                 Hashtbl.replace external_callers c (names.(i) :: old);
                 None)
             cs))
    callees;
  let callers = Hashtbl.create n in
  Array.iteri
    (fun j rcs ->
      if rcs <> [] then Hashtbl.replace callers names.(j) (List.rev rcs))
    rev_callers;
  Hashtbl.iter
    (fun c rcs -> Hashtbl.replace callers c (List.rev rcs))
    external_callers;
  let roots = ref [] and starts = ref [] in
  for i = n - 1 downto 0 do
    if rev_callers.(i) = [] then begin
      roots := names.(i) :: !roots;
      starts := i :: !starts
    end
  done;
  let starts = if !starts = [] then List.init n Fun.id else !starts in
  let sccs = sccs_of succ in
  (* on a cycle: in a component of several functions, or calling itself *)
  let on_cycle = Array.make n false in
  List.iter
    (function
      | [ i ] -> on_cycle.(i) <- Array.mem i succ.(i)
      | c -> List.iter (fun i -> on_cycle.(i) <- true) c)
    sccs;
  let name i = names.(i) in
  {
    names;
    index;
    callees;
    callers;
    roots = !roots;
    postorder = postorder_of names succ starts;
    sccs = List.map (List.map name) sccs;
    cyclic =
      List.concat_map
        (List.filter_map (fun i -> if on_cycle.(i) then Some (name i) else None))
        sccs;
    on_cycle;
  }

let callees t name =
  match Hashtbl.find_opt t.index name with Some i -> t.callees.(i) | None -> []

let callers t name = Option.value ~default:[] (Hashtbl.find_opt t.callers name)
let is_defined t name = Hashtbl.mem t.index name

(* Functions never called from within the program: analysis roots. *)
let roots t = t.roots

let analysis_roots t =
  match t.roots with [] -> Array.to_list t.names | rs -> rs

(* Post-order over defined functions: every callee precedes its callers.
   Cycles (recursion) are broken at the revisit point. *)
let postorder t = t.postorder
let sccs t = t.sccs

let cyclic t = t.cyclic

let is_recursive t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> t.on_cycle.(i)
  | None -> false

let pp ppf t =
  let pp_node ppf name =
    Fmt.pf ppf "%s -> {%a}" name
      Fmt.(list ~sep:(any ", ") string)
      (callees t name)
  in
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(list ~sep:(any "@ ") pp_node)
    (Array.to_list t.names)
