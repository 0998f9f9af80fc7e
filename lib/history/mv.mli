(** Multiversion (MV) histories (§4.2 of the paper; [BHG] Chapter 5).

    Writes create versions named by their transaction; reads name the
    version observed ([r1[x0=50]]). This module provides the multiversion
    serialization graph test, the two defining rules of Snapshot Isolation,
    and the paper's mapping of SI histories to single-valued histories. *)

val is_mv : Hist.t -> bool
(** Does any action carry an explicit version annotation? *)

val version_order : Hist.t -> Action.key -> Action.version list
(** Committed writers of a key in commit order, preceded by the initial
    version [0]. *)

val mvsg : Hist.t -> Graph.Digraph.t
(** The multiversion serialization graph over committed transactions (node
    0 is the virtual initial transaction). *)

val is_one_copy_serializable : Hist.t -> bool
val mvsg_cycle : Hist.t -> Action.txn list option

val snapshot_reads_respected : Hist.t -> bool
(** The SI read rule, existentially as the paper states it: for each
    transaction there is a snapshot point no later than its first read
    from which every read not satisfied by its own writes observes the
    latest committed version. *)

val first_committer_wins_respected : Hist.t -> bool
(** No two committed transactions with overlapping execution intervals wrote
    the same item — the SI commit rule (§4.2). *)

val si_to_single_version : Hist.t -> Hist.t
(** The paper's SI-to-single-valued mapping: reads move to the transaction's
    first-action point, writes to just before its termination; version
    annotations are stripped. Maps the paper's H1.SI to H1.SI.SV. *)
