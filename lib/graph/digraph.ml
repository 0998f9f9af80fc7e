(* Mutable adjacency: one hash table of successor sets and one of
   predecessor sets, keyed by node id; an edge a->b touches a's
   successors and b's predecessors. *)

module Int_set = Set.Make (Int)

type t = {
  succ : (int, Int_set.t) Hashtbl.t;
  pred : (int, Int_set.t) Hashtbl.t;
  mutable edges : int;
}

let create () = { succ = Hashtbl.create 64; pred = Hashtbl.create 64; edges = 0 }

let add_node g n =
  if not (Hashtbl.mem g.succ n) then begin
    Hashtbl.replace g.succ n Int_set.empty;
    Hashtbl.replace g.pred n Int_set.empty
  end

let mem_node g n = Hashtbl.mem g.succ n

let succ_set g n =
  match Hashtbl.find_opt g.succ n with
  | Some s -> s
  | None -> Int_set.empty

let pred_set g n =
  match Hashtbl.find_opt g.pred n with
  | Some s -> s
  | None -> Int_set.empty

let mem_edge g a b = Int_set.mem b (succ_set g a)

let add_edge g a b =
  add_node g a;
  add_node g b;
  let sa = succ_set g a in
  if not (Int_set.mem b sa) then begin
    Hashtbl.replace g.succ a (Int_set.add b sa);
    Hashtbl.replace g.pred b (Int_set.add a (pred_set g b));
    g.edges <- g.edges + 1
  end

let remove_edge g a b =
  let sa = succ_set g a in
  if Int_set.mem b sa then begin
    Hashtbl.replace g.succ a (Int_set.remove b sa);
    Hashtbl.replace g.pred b (Int_set.remove a (pred_set g b));
    g.edges <- g.edges - 1
  end

let remove_out_edges g n =
  Int_set.iter (fun s -> remove_edge g n s) (succ_set g n)

let remove_node g n =
  if mem_node g n then begin
    remove_out_edges g n;
    Int_set.iter (fun p -> remove_edge g p n) (pred_set g n);
    Hashtbl.remove g.succ n;
    Hashtbl.remove g.pred n
  end

let succs g n = Int_set.elements (succ_set g n)
let preds g n = Int_set.elements (pred_set g n)

let nodes g =
  Hashtbl.fold (fun n _ acc -> n :: acc) g.succ [] |> List.sort compare

let node_count g = Hashtbl.length g.succ

let edge_count g = g.edges

(* One depth-first search in ascending node order ([nodes] and [succs]
   are sorted, so it is deterministic). It retains the path, so a back
   edge yields the cycle itself rather than just its existence; on an
   acyclic graph the reversed post-order is a topological order. [succs]
   is asked once per node reached, so a caller can compute a graph's
   adjacency on demand instead of storing it. *)
let search_by ~nodes ~succs =
  let state = Hashtbl.create 16 in
  (* state: absent = unvisited, `Active = on stack, `Done = finished *)
  let order = ref [] in
  let rec dfs path n =
    match Hashtbl.find_opt state n with
    | Some `Done -> None
    | Some `Active ->
      (* [path] is most-recent-first; the cycle is n :: ... back to n. *)
      let rec take acc = function
        | [] -> acc
        | x :: rest -> if x = n then x :: acc else take (x :: acc) rest
      in
      Some (take [] path)
    | None ->
      Hashtbl.replace state n `Active;
      let rec loop = function
        | [] ->
          Hashtbl.replace state n `Done;
          order := n :: !order;
          None
        | s :: rest -> (
          match dfs (n :: path) s with
          | Some _ as c -> c
          | None -> loop rest)
      in
      loop (succs n)
  in
  let rec scan = function
    | [] -> Ok !order
    | n :: rest -> (
      match dfs [] n with Some c -> Error c | None -> scan rest)
  in
  scan nodes

let search g = search_by ~nodes:(nodes g) ~succs:(succs g)

let find_cycle_by ~nodes ~succs =
  match search_by ~nodes ~succs with Error c -> Some c | Ok _ -> None


let find_cycle g = match search g with Error c -> Some c | Ok _ -> None
let is_acyclic g = Result.is_ok (search g)
let topological_sort g = Result.to_option (search g)
