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

module X = Index

(* The actions after position [i] that conflict with the one there,
   ascending, from the later entries of its own item and predicate
   slots. [~every:false] keeps only enough item conflicts for every
   cycle: a write reaches its item's accesses up to the next write of
   it, a read (or predicate read, per matched item) only that next
   write, so each conflicting pair is joined by a path through the
   writes between them, in linearly many edges. Predicate-name pairs
   do not chain through writes and stay whole. *)
let conflicts_after ~every x i =
  let a = x.X.arr.(i) in
  let upto slot hi = X.union_between [ X.at x slot ] i hi in
  let next_write k = X.next (X.at x (Writes_on k)) i in
  let item_end k =
    let w = next_write k in
    if every || w = max_int then max_int else w + 1
  in
  let first_writes k =
    if every then upto (Writes_on k) max_int
    else List.filter (( <> ) max_int) [ next_write k ]
  in
  (match a with
  | Action.Read r -> [ first_writes r.rk ]
  | Action.Write w ->
    let hi = item_end w.wk in
    upto (Writes_on w.wk) hi :: upto (Reads_on w.wk) hi
    :: upto (Pred_reads_on w.wk) hi
    :: List.map (fun p -> upto (Pred_reads_named p) max_int) w.wpreds
  | Action.Pred_read p ->
    upto (Writes_declaring p.pname) max_int :: List.map first_writes p.pkeys
  | Action.Commit _ | Action.Abort _ -> [])
  |> List.concat |> List.sort_uniq compare
  |> List.filter (fun j -> Action.conflicts a x.arr.(j))

let committed_index h = X.create (Hist.project_committed h)

(* The transactions with an action conflicting with an earlier one of
   [t], ascending. *)
let successors ~every x t =
  Array.to_list (X.at x (Actions_of t))
  |> List.concat_map (fun i ->
         List.map (fun j -> Action.txn x.X.arr.(j)) (conflicts_after ~every x i))
  |> List.sort_uniq compare

let edges h =
  let x = committed_index h in
  List.concat
    (List.mapi
       (fun i a ->
         List.map
           (fun j ->
             let b = x.arr.(j) in
             { src = Action.txn a;
               dst = Action.txn b;
               dep = classify a b;
               src_action = a;
               dst_action = b })
           (conflicts_after ~every:true x i))
       (Array.to_list x.arr))

let graph h =
  (* one shard: the graph serves a single query *)
  let g = Digraph.create ~shards:1 () in
  List.iter (fun t -> Digraph.add_node g t) (Hist.committed h);
  List.iter (fun e -> Digraph.add_edge g e.src e.dst) (edges h);
  g

(* The search asks each node it reaches for its successors, so neither
   graph is ever stored. The reduced graph decides acyclicity; a cycle
   is then looked for in the full one, so the witness is [graph]'s. *)
let find_cycle ~every h =
  Digraph.find_cycle_by ~nodes:(Hist.committed h)
    ~succs:(successors ~every (committed_index h))

let is_serializable h = find_cycle ~every:false h = None
let cycle h = if is_serializable h then None else find_cycle ~every:true h
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
