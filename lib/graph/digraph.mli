(** Mutable directed graphs over integer-identified nodes (transaction
    ids), with adjacency stored in a fixed array of hash shards keyed by
    [id mod shards]. The offline queries below (cycle witness,
    topological sort) serve the per-history analyses — dependency
    graphs, the MVSG, the deterministic executor's waits-for check. The
    long-running consumers (the waits-for graph, the online certifier)
    use {!Incremental} instead, which keeps its own adjacency; the
    deletions here let tests mirror it.

    Not internally synchronised: callers that mutate from several domains
    must serialise access. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] is rounded up to a power of two; default 16. *)

val add_node : t -> int -> unit
(** Idempotent. *)

val add_edge : t -> int -> int -> unit
(** Adds both endpoints; idempotent on duplicate edges. *)

val remove_edge : t -> int -> int -> unit
val remove_out_edges : t -> int -> unit

val remove_node : t -> int -> unit
(** Removes the node and every edge incident to it. *)

val mem_node : t -> int -> bool
val mem_edge : t -> int -> int -> bool
val succs : t -> int -> int list
(** Sorted ascending. *)

val preds : t -> int -> int list

val nodes : t -> int list
(** Sorted ascending. *)

val node_count : t -> int
val edge_count : t -> int

val find_cycle : t -> int list option
(** [find_cycle g] is [Some [n1; ...; nk]] where [n1 -> ... -> nk -> n1] is a
    cycle in [g], or [None] if [g] is acyclic. A depth-first search in
    ascending node order, so the witness is deterministic. *)

val is_acyclic : t -> bool

val topological_sort : t -> int list option
(** A topological order of the nodes, or [None] if the graph is cyclic. *)
