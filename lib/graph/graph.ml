(* Umbrella module of the [graph] library: the shared incremental
   directed-graph engine. [Digraph] is a mutable, shard-hashed adjacency
   structure sized for transaction ids, with the offline queries;
   [Incremental] keeps its own per-node records and maintains a
   topological order over them (Pearce–Kelly style) so that the edge
   that closes a cycle is detected — with its witness path — the moment
   it is offered, in time proportional to the affected region rather
   than the whole graph. Both the pool's waits-for deadlock detector and
   the runtime's online serializability certifier are built on it. *)

module Digraph = Digraph
module Incremental = Incremental
