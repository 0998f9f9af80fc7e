(* Shard-hashed mutable adjacency. A node's successor and predecessor
   sets live in the shard [id land mask]; an edge a->b touches shard(a)'s
   successors and shard(b)'s predecessors. Sharding keeps the hash tables
   small and independent as tids grow into the tens of thousands. *)

module Int_set = Set.Make (Int)

type shard = {
  succ : (int, Int_set.t) Hashtbl.t;
  pred : (int, Int_set.t) Hashtbl.t;
}

type t = { shards : shard array; mask : int; mutable edges : int }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(shards = 16) () =
  let n = pow2 (max 1 shards) 1 in
  {
    shards = Array.init n (fun _ ->
        { succ = Hashtbl.create 64; pred = Hashtbl.create 64 });
    mask = n - 1;
    edges = 0;
  }

let shard g n = g.shards.((n land max_int) land g.mask)

let add_node g n =
  let s = shard g n in
  if not (Hashtbl.mem s.succ n) then begin
    Hashtbl.replace s.succ n Int_set.empty;
    Hashtbl.replace s.pred n Int_set.empty
  end

let mem_node g n = Hashtbl.mem (shard g n).succ n

let succ_set g n =
  match Hashtbl.find_opt (shard g n).succ n with
  | Some s -> s
  | None -> Int_set.empty

let pred_set g n =
  match Hashtbl.find_opt (shard g n).pred n with
  | Some s -> s
  | None -> Int_set.empty

let mem_edge g a b = Int_set.mem b (succ_set g a)

let add_edge g a b =
  add_node g a;
  add_node g b;
  let sa = succ_set g a in
  if not (Int_set.mem b sa) then begin
    Hashtbl.replace (shard g a).succ a (Int_set.add b sa);
    Hashtbl.replace (shard g b).pred b (Int_set.add a (pred_set g b));
    g.edges <- g.edges + 1
  end

let remove_edge g a b =
  let sa = succ_set g a in
  if Int_set.mem b sa then begin
    Hashtbl.replace (shard g a).succ a (Int_set.remove b sa);
    Hashtbl.replace (shard g b).pred b (Int_set.remove a (pred_set g b));
    g.edges <- g.edges - 1
  end

let remove_out_edges g n =
  Int_set.iter (fun s -> remove_edge g n s) (succ_set g n)

let remove_node g n =
  if mem_node g n then begin
    remove_out_edges g n;
    Int_set.iter (fun p -> remove_edge g p n) (pred_set g n);
    Hashtbl.remove (shard g n).succ n;
    Hashtbl.remove (shard g n).pred n
  end

let succs g n = Int_set.elements (succ_set g n)
let preds g n = Int_set.elements (pred_set g n)

let nodes g =
  Array.fold_left
    (fun acc s -> Hashtbl.fold (fun n _ acc -> n :: acc) s.succ acc)
    [] g.shards
  |> List.sort compare

let node_count g =
  Array.fold_left (fun acc s -> acc + Hashtbl.length s.succ) 0 g.shards

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
