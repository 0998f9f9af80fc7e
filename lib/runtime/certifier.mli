(** Online serializability certification.

    A certifier ingests the recorded history one action at a time —
    through the engine trace hook during a live run, or via {!replay}
    offline — and maintains a reduced dependency graph on the
    incremental topological order of {!Graph.Incremental}: wr / ww / rw
    edges whose transitive closure equals the offline
    {!History.Conflict.graph} (single-version families) or
    {!History.Mv.mvsg} (multiversion family). The closing edge of a
    dependency cycle is rejected and reported the moment it is offered.

    In [Enforce] mode the transaction whose action closed the cycle is
    doomed on the spot; the worker pool polls {!doomed} and aborts it
    at a later operation — at the latest its commit, where the poll
    waits for the graph to catch up — so anomalies are certified away
    rather than observed. In [Observe] mode cycles are only recorded.
    {!finalize} turns either run into a full-history verdict on
    the committed projection by purging unfinished transactions and
    replaying the rejected edges whose endpoints committed.

    The correctness criterion is selectable. [Serializability] (the
    default) is the single-level behaviour: every cycle is a violation,
    any member may be doomed. [Mixed] makes the level a per-transaction
    property ({!note_level}): a rejected cycle is classified into the
    Table-4 phenomena it could exhibit, and a member is {e harmed} only
    when every candidate is forbidden at its own declared level — an SI
    transaction tolerates write skew (A5B), an RC transaction tolerates
    non-repeatable reads (P2/A5A), a SERIALIZABLE transaction tolerates
    nothing. A cycle harming nobody is tolerated outright. A harmful
    cycle dooms a harmed member when one is still active; when every
    harmed member has already committed (the cycle closed behind its
    back), the youngest active cycle member is doomed in its stead — a
    defensive abort, as SSI aborts a benign pivot — so the committed
    victim keeps the protection its level promises. Edges are inserted
    identically under both criteria, so a strong transaction is still
    protected by cycles passing through weak ones; only the doom
    decision is victim-relative. *)

type mode = Observe | Enforce
type family = [ `Locking | `Mv | `Timestamp ]

type criterion = Serializability | Mixed
(** What {!finalize} certifies: one global serializability verdict, or
    the per-victim mixed-level criterion. *)

type violation = {
  cycle : int list;      (** the witness: [n1 -> ... -> nk -> n1] *)
  dep : string;          (** the closing edge's kind: "wr", "ww" or "rw" *)
  src : int;
  dst : int;
  doomed : int option;   (** the transaction doomed for it, if enforcing *)
  victim_level : string option;
      (** the protected party's declared level slug: the harmed member
          the doom defends (which may not be the doomed transaction —
          see the defensive abort above), else the doomed member's own
          ([Mixed] only) *)
  classes : string list;
      (** candidate phenomena of the cycle, e.g. ["P2"; "A5A"]
          ([Mixed] only) *)
}

type summary = {
  mode : mode;
  criterion : criterion;
  nodes : int;           (** dependency-graph nodes when finalize began *)
  edges : int;           (** dependency-graph edges when finalize began *)
  edges_wr : int;        (** distinct write-read edges inserted *)
  edges_ww : int;
  edges_rw : int;
  cycles : int;          (** closing edges rejected during the run *)
  dooms : int;           (** transactions doomed (Enforce) *)
  misses : int;          (** cycles with no active member left to doom *)
  tolerated : int;       (** cycles harming no member ([Mixed]) *)
  harmed : int;
      (** finalize-replay attributions whose every candidate is
          forbidden at the committed member's level ([Mixed]) *)
  prune_passes : int;    (** era-pruning passes run (see {!create}) *)
  pruned_nodes : int;    (** committed nodes retired from the graph *)
  pruned_eras : int;     (** settled era-stack entries trimmed *)
  serializable : bool;   (** the committed projection's final verdict *)
  mixed_ok : bool;
      (** the mixed-criterion verdict: no committed member harmed.
          Equals [serializable] under [Serializability]. A mixed run
          can be [mixed_ok] yet not [serializable] — tolerated cycles
          among weak transactions are the point. *)
  matrix : ((Isolation.Level.t * Phenomena.Phenomenon.t) * int) list;
      (** permitted-anomaly attribution on the committed projection:
          how many finalize-replay cycles each level's victims were
          allowed to shrug off, per candidate phenomenon ([Mixed];
          SERIALIZABLE victims can have no cells by construction) *)
  witness : int list option;
  violations : violation list;  (** at most 64 retained, in order *)
}

type t

val create :
  ?on_edge:(src:int -> dst:int -> dep:string -> unit) ->
  ?on_cycle:(violation -> unit) ->
  ?prune_every:int ->
  ?criterion:criterion ->
  mode:mode ->
  family:family ->
  unit ->
  t
(** [on_edge] fires for every edge actually inserted, [on_cycle] for
    every rejected closing edge — both inside the certifier's critical
    section, so keep them cheap (the pool uses them to emit
    [Dep_edge] / [Dep_cycle] trace events).

    {!observe} only appends the action to a small buffer — shrinking
    the caller's critical section (the engine trace lock) to a list
    cons — and the dependency-graph work happens on the next {!flush},
    {!doomed} poll, {!mv_trim} or {!finalize}, so a reading taken right
    after {!observe} ({!stats}, a callback count) needs a {!flush}
    first. Buffer order equals history order because the engine
    serializes its trace hook, so the graph sees the history in its
    recorded order.

    [prune_every] > 0 (default 0, off) bounds memory for long
    single-version runs: every that many commits, settled era-stack
    bottoms are trimmed, committed predicate readers/writers are folded
    into per-predicate virtual nodes (an exact biclique compression),
    and committed graph sources no structure references any more are
    retired. The verdict is unchanged — a retired node can never gain
    another in-edge, so no future cycle can pass through it. The
    multiversion family runs the same retirement cadence, but its
    version-order and reader references only go away when the engine's
    vacuum declares versions buried — see {!mv_trim}. *)

val note_level : t -> tid:int -> level:Isolation.Level.t -> unit
(** Declare a transaction's isolation level (call at BEGIN, before its
    first action reaches {!observe}). Only consulted under the [Mixed]
    criterion; an undeclared transaction defaults to SERIALIZABLE,
    which forbids every phenomenon — the conservative reading. *)

val observe : t -> int -> History.Action.t -> unit
(** Feed one action, in history order; the [int] is its position
    (matching the {!Core.Engine.set_trace_hook} signature). It is
    buffered until the next drain (see {!create}). Safe to call
    concurrently with {!doomed}. *)

val flush : t -> unit
(** Drain buffered actions into the graph. {!doomed}, {!mv_trim} and
    {!finalize} drain implicitly; {!stats} does not. *)

val mv_trim : t -> buried:(string * int) list -> unit
(** Retire multiversion version-order entries: [buried] is the exact
    (key, writer) list a vacuum pruned at the oldest-active-snapshot
    horizon (the {!Core.Engine.set_prune_hook} payload — the pool wires
    it). Removes each writer from the key's version order and drops its
    per-version reader table; the writers themselves are then collected
    by the [prune_every] retirement cadence. Sound because no active or
    future snapshot can read a buried version, and every rw edge its
    past readers needed was offered at observation time. *)

val doomed : ?wait:bool -> t -> int -> bool
(** Has the transaction been doomed for closing a cycle? Polled by
    workers before each operation. With [~wait:true] the poll takes the
    certifier lock, drains the batch buffer and answers exactly: the
    pool's commit check, so no doomed transaction commits. A transaction
    that check clears is sealed until its Commit or Abort is observed: a
    cycle that closes through it in between dooms another member, or
    counts as a miss, because no poll is left to catch its doom. With
    [~wait:false] (the default) the poll answers exactly when the lock
    is free, but when another thread holds it the poll returns at once
    with the published doom set (updated under the lock wherever a doom
    is recorded or dropped, before [on_cycle] fires): a doom still in
    the buffer is then seen by a later poll, at the latest the
    commit's. *)

type stats = {
  s_nodes : int;          (** dependency-graph nodes right now *)
  s_edges : int;
  s_queue : int;          (** batched actions awaiting graph work *)
  s_pending : int;        (** rejected closing edges held for finalize *)
  s_edges_wr : int;
  s_edges_ww : int;
  s_edges_rw : int;
  s_cycles : int;
  s_dooms : int;
  s_misses : int;         (** cycles with no active member left to doom *)
  s_tolerated : int;      (** cycles harming no member ([Mixed]) *)
  s_prune_passes : int;   (** era-pruning passes run so far *)
  s_pruned_nodes : int;   (** committed nodes retired from the graph *)
  s_pruned_eras : int;
      (** settled era-stack entries trimmed (single-version families) or
          buried versions dropped by {!mv_trim} (multiversion) *)
}

val stats : t -> stats
(** A live, non-destructive progress reading: unlike {!doomed} and
    {!finalize} it does not drain the batch buffer (the queue depth is
    itself the gauge), so scraping a running certifier never moves graph
    work onto the scraper. Safe from any thread. *)

val finalize : t -> summary
(** The final verdict; call once the run is over (every transaction
    terminated or permanently idle). *)

val replay :
  ?mode:mode ->
  ?family:family ->
  ?criterion:criterion ->
  ?levels:(int * Isolation.Level.t) list ->
  History.t ->
  summary
(** Run a fresh certifier over a complete history. [family] defaults to
    [`Mv] when the history is version-annotated ({!History.Mv.is_mv}),
    else [`Locking] — the same dispatch the offline oracle uses, so
    [(replay h).serializable] agrees with
    {!History.Conflict.is_serializable} / {!History.Mv.is_one_copy_serializable}
    on the committed projection. [levels] tags transactions for the
    [Mixed] criterion (untagged default to SERIALIZABLE). *)

val pp_violation : violation Fmt.t
val pp_summary : summary Fmt.t

val to_json : summary -> string
(** One JSON object: mode, per-kind [dep_edges] counts, cycle/doom/miss
    counters, the verdict, the witness and the retained violations. *)
