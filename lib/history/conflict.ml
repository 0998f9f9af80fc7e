(* Dependency graphs and conflict-serializability (§2.1).

   Nodes are the committed transactions of the history; if action op1 of T1
   conflicts with and precedes action op2 of T2, the pair contributes an
   edge T1 -> T2. A history is (conflict-)serializable iff its dependency
   graph is acyclic; a topological order is then an equivalent serial
   execution. *)

module Digraph = Graph.Digraph

type dep = Write_write | Write_read | Read_write

let pp_dep ppf = function
  | Write_write -> Fmt.string ppf "ww"
  | Write_read -> Fmt.string ppf "wr"
  | Read_write -> Fmt.string ppf "rw"

type edge = {
  src : Action.txn;
  dst : Action.txn;
  dep : dep;
  src_action : Action.t;
  dst_action : Action.t;
}

let pp_edge ppf e =
  Fmt.pf ppf "T%d -%a-> T%d (%a, %a)" e.src pp_dep e.dep e.dst Action.pp
    e.src_action Action.pp e.dst_action

let classify a b =
  match (a, b) with
  | Action.Write _, Action.Write _ -> Write_write
  | Action.Write _, (Action.Read _ | Action.Pred_read _) -> Write_read
  | (Action.Read _ | Action.Pred_read _), Action.Write _ -> Read_write
  | _ -> assert false (* only called on conflicting pairs *)

let edges h =
  let h = Hist.project_committed h in
  let arr = Array.of_list h in
  let n = Array.length arr in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if Action.conflicts a b then
        acc :=
          { src = Action.txn a;
            dst = Action.txn b;
            dep = classify a b;
            src_action = a;
            dst_action = b }
          :: !acc
    done
  done;
  List.rev !acc

let graph h =
  (* one shard: the graph serves a single query *)
  let g = Digraph.create ~shards:1 () in
  List.iter (fun t -> Digraph.add_node g t) (Hist.committed h);
  List.iter (fun e -> Digraph.add_edge g e.src e.dst) (edges h);
  g

let cycle h = Digraph.find_cycle (graph h)
let is_serializable h = Digraph.is_acyclic (graph h)
let serialization_order h = Digraph.topological_sort (graph h)

(* Two histories are equivalent when they have the same committed
   transactions and the same dependency graph (§2.1). *)
let equivalent h1 h2 =
  Hist.committed h1 = Hist.committed h2
  &&
  let edge_set h =
    List.sort_uniq compare (List.map (fun e -> (e.src, e.dst, e.dep)) (edges h))
  in
  edge_set h1 = edge_set h2

(* The serial history executing the committed transactions of [h] one at a
   time in the given order. *)
let serial_history h order =
  List.concat_map (fun t -> Hist.actions_of t (Hist.project_committed h)) order

(* Graphviz rendering of the dependency graph, for papers and debugging:
   nodes are committed transactions, edges carry their dependency kind and
   the item. *)
let to_dot h =
  let b = Buffer.create 256 in
  Buffer.add_string b "digraph dependencies {\n  rankdir=LR;\n";
  List.iter
    (fun t -> Buffer.add_string b (Fmt.str "  T%d [shape=circle];\n" t))
    (Hist.committed h);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Fmt.str "  T%d -> T%d [label=\"%a:%s\"];\n" e.src e.dst pp_dep e.dep
           (Option.value ~default:"?" (Action.key e.src_action))))
    (edges h);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Serializability by definition: equivalent to some serial history. For
   conflict-based equivalence this coincides with graph acyclicity; we expose
   it to let tests confirm the Serializability Theorem on small histories. *)
let equivalent_serial h =
  match serialization_order h with
  | None -> None
  | Some order ->
    let s = serial_history h order in
    if equivalent h s then Some s else None
