(** Incremental cycle detection via online topological ordering
    (Pearce & Kelly, "A dynamic topological sort algorithm for directed
    acyclic graphs", JEA 2006).

    The structure maintains an acyclic digraph together with a priority
    [order_of] such that every edge [a -> b] has
    [order_of a < order_of b]. Inserting an edge that already respects
    the order is O(1); otherwise only the "affected region" — nodes with
    priorities between the endpoints' — is searched and reprioritised.
    An edge that would close a cycle is {e rejected}: the graph stays
    acyclic and the witness cycle is returned immediately, so consumers
    (deadlock detection, online certification) learn of the cycle at the
    exact edge that formed it.

    Each node is one record — its priority and its successor and
    predecessor sets — reached by one table lookup, so an edge update
    costs a lookup per endpoint. An adjacency set is a flat array up to
    a small degree and an open-addressing hash set above it: updates
    allocate nothing on the common path, and membership and removal stay
    O(1) expected on high-degree nodes (a reader of every key, a virtual
    predicate node, a lock holder with many waiters). Neighbours are
    sorted only where their order is observable: in {!succs}, {!preds}
    and the search that builds a cycle witness.

    Deletions never disturb a valid order, so they are plain adjacency
    updates. All operations are serialised on an internal mutex and safe
    to call from multiple domains. Node ids are any [int] but [min_int]
    (the free-slot marker of the hashed sets). *)

type t

val create : unit -> t

val add_node : t -> int -> unit

val add_edge : t -> int -> int -> [ `Ok | `Exists | `Cycle of int list ]
(** [add_edge t x y] inserts [x -> y], unless doing so would close a
    cycle — then the edge is {e not} inserted and [`Cycle [y; ...; x]]
    is returned: an existing path [y -> ... -> x] that the rejected edge
    [x -> y] would have closed, in {!Digraph.find_cycle} witness
    format ([n1 -> ... -> nk -> n1]). The path is the first that a
    depth-first search from [y], trying successors in ascending order,
    finds. A self-loop yields [`Cycle [x]]; an edge already present
    yields [`Exists]. *)

val remove_edge : t -> int -> int -> unit
val remove_out_edges : t -> int -> unit

val remove_node : t -> int -> unit
(** Removes the node and all incident edges (a finished transaction). *)

val mem_edge : t -> int -> int -> bool

val succs : t -> int -> int list
(** Sorted ascending. *)

val preds : t -> int -> int list
(** Sorted ascending. *)

val in_degree : t -> int -> int
(** The number of predecessors, in O(1) and without allocating; 0 for
    an absent node. *)

val nodes : t -> int list
(** Sorted ascending. *)

val node_count : t -> int
val edge_count : t -> int

val order_of : t -> int -> int option
(** The node's current priority; [order_of a < order_of b] for every
    edge [a -> b]. Exposed for tests of the order-maintenance
    invariant. *)
