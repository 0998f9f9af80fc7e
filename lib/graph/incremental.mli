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

    Deletions never disturb a valid order, so they are plain adjacency
    updates. All operations are serialised on an internal mutex and safe
    to call from multiple domains. *)

type t

val create : ?shards:int -> unit -> t

val add_node : t -> int -> unit

val add_edge : t -> int -> int -> [ `Ok | `Exists | `Cycle of int list ]
(** [add_edge t x y] inserts [x -> y], unless doing so would close a
    cycle — then the edge is {e not} inserted and [`Cycle [y; ...; x]]
    is returned: an existing path [y -> ... -> x] that the rejected edge
    [x -> y] would have closed, in {!Digraph.find_cycle} witness
    format ([n1 -> ... -> nk -> n1]). A self-loop yields [`Cycle [x]];
    an edge already present yields [`Exists]. *)

val remove_edge : t -> int -> int -> unit
val remove_out_edges : t -> int -> unit

val remove_node : t -> int -> unit
(** Removes the node and all incident edges (a finished transaction). *)

val mem_edge : t -> int -> int -> bool
val succs : t -> int -> int list
val preds : t -> int -> int list
val nodes : t -> int list
val node_count : t -> int
val edge_count : t -> int

val order_of : t -> int -> int option
(** The node's current priority; [order_of a < order_of b] for every
    edge [a -> b]. Exposed for tests of the order-maintenance
    invariant. *)
