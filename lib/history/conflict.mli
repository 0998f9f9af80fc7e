(** Dependency graphs and conflict-serializability (§2.1 of the paper).

    Nodes are committed transactions; conflicting ordered action pairs
    contribute edges. A history is serializable iff the graph is acyclic. *)

type dep = Write_write | Write_read | Read_write

val pp_dep : dep Fmt.t

type edge = {
  src : Action.txn;
  dst : Action.txn;
  dep : dep;
  src_action : Action.t;
  dst_action : Action.t;
}

val pp_edge : edge Fmt.t

val edges : Hist.t -> edge list
(** Dependency edges among committed transactions, in history order of the
    earlier action. *)

val graph : Hist.t -> Graph.Digraph.t

val cycle : Hist.t -> Action.txn list option
(** A cycle in the dependency graph, witnessing non-serializability. *)

val is_serializable : Hist.t -> bool

val serialization_order : Hist.t -> Action.txn list option
(** An equivalent serial order of the committed transactions, when one
    exists. *)

val equivalent : Hist.t -> Hist.t -> bool
(** Same committed transactions and same dependency graph (§2.1). *)

val to_dot : Hist.t -> string
(** The dependency graph in Graphviz dot syntax. *)

val serial_history : Hist.t -> Action.txn list -> Hist.t
(** The history executing the committed transactions of the input one at a
    time in the given order. *)

val equivalent_serial : Hist.t -> Hist.t option
(** An equivalent serial history, when the history is serializable. *)
