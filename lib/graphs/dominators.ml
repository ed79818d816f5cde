(* Dominator computation with the Cooper–Harvey–Kennedy iterative
   algorithm over reverse-postorder indices. Used by the loop detector
   to identify back edges, which trace collection needs to bound loop
   exploration. *)

type t = {
  idom : (string, string) Hashtbl.t; (* immediate dominator; entry maps to itself *)
  entry : string;
}

let compute (cfg : Cfg.t) =
  let rpo = Cfg.reverse_postorder cfg in
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) rpo;
  let entry = Cfg.entry cfg in
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom entry entry;
  let intersect a b =
    (* walk the two candidate dominators up the current idom tree until
       they meet; lower rpo index = closer to entry *)
    let rec go a b =
      if String.equal a b then a
      else
        let ia = Hashtbl.find index a and ib = Hashtbl.find index b in
        if ia > ib then go (Hashtbl.find idom a) b else go a (Hashtbl.find idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun label ->
        if not (String.equal label entry) then begin
          let processed_preds =
            List.filter (fun p -> Hashtbl.mem idom p) (Cfg.predecessors cfg label)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            (match Hashtbl.find_opt idom label with
            | Some old when String.equal old new_idom -> ()
            | Some _ | None ->
              Hashtbl.replace idom label new_idom;
              changed := true)
        end)
      rpo
  done;
  { idom; entry }

let idom t label =
  if String.equal label t.entry then None else Hashtbl.find_opt t.idom label

(* Does [a] dominate [b]? *)
let dominates t a b =
  let rec up b =
    if String.equal a b then true
    else if String.equal b t.entry then false
    else
      match Hashtbl.find_opt t.idom b with
      | None -> false (* unreachable block *)
      | Some p -> up p
  in
  up b
