(** The unified engine: locking scheduler (Table 2 protocols) or
    multiversion engine (Snapshot Isolation, Oracle Read Consistency)
    behind one stepping interface. Levels mix freely within a family; an
    execution cannot mix locking and multiversion levels, because the two
    families do not share a store. *)

module Action = History.Action
module Level = Isolation.Level

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | First_committer_wins
  | First_updater_wins
  | Serialization_failure
      (** commit-time read validation failed (Serializable SI) *)
  | Too_late
      (** a timestamp-ordering operation arrived against a younger
          transaction's access *)
  | Fault_injected
      (** injected by a fault plan: spurious step failure or torn
          commit *)
  | Deadline_exceeded  (** the transaction ran past its deadline *)
  | Certifier_abort
      (** the online certifier doomed it: one of its actions closed a
          dependency cycle *)

val pp_abort_reason : abort_reason Fmt.t

type status = Active | Committed | Aborted of abort_reason

type step_outcome =
  | Progress          (** the operation executed (possibly terminating the txn) *)
  | Blocked of txn list  (** blocked on these holders; retry the operation *)
  | Finished          (** the transaction had already terminated *)

type t

val family_of_levels : Level.t list -> [ `Locking | `Mv | `Timestamp ]
(** @raise Invalid_argument if the levels mix families. *)

val create :
  initial:(key * value) list ->
  predicates:Storage.Predicate.t list ->
  ?stripes:int ->
  ?audit:bool ->
  ?first_updater_wins:bool ->
  ?next_key_locking:bool ->
  ?update_locks:bool ->
  ?wal_dir:string ->
  ?wal_segment_bytes:int ->
  ?checkpoint_every:int ->
  ?retain_trace:bool ->
  family:[ `Locking | `Mv | `Timestamp ] ->
  unit ->
  t
(** [predicates] are annotated onto matching writes in the trace (for the
    phantom detectors) — they do not affect locking, which uses the actual
    predicates of scans. [stripes] (default 1) shards the locking engine's
    store and lock table by key hash for the runtime's striped execution;
    [audit] (default true) keeps the lock table's audit log (striped
    callers turn it off). Both are ignored by the multiversion and
    timestamp engines, which always report an {!All} footprint.
    [first_updater_wins] switches Snapshot Isolation from
    First-Committer-Wins to the PostgreSQL-style write-time check.
    [next_key_locking] swaps the locking engine's predicate-lock phantom
    guard for next-key locking. The out-of-core options ([wal_dir],
    [wal_segment_bytes], [checkpoint_every], [retain_trace]) pass
    through to every family's create — the locking and timestamp
    engines log the single-version record set, the multiversion engine
    logs versioned records (Vinstall/Vcommit/Watermark/Vcheckpoint). *)

(** The shards a step of an operation touches — the runtime's stripe
    planner acquires exactly these stripes before stepping. [All] is the
    conservative answer (and the only one non-locking engines and
    next-key locking give): hold every stripe, excluding every other step. *)
type footprint = Lock_engine.footprint = All | Keys of { keys : key list; pred : bool }

val footprint : t -> txn -> Program.op -> footprint
(** Computed on the owning worker from owner-local state; see
    {!Lock_engine.footprint}. *)

val begin_txn : ?read_only:bool -> t -> txn -> level:Level.t -> unit
(** [read_only] transactions read the committed snapshot as of begin
    (lock-free under the locking engine — the Multiversion Mixed Method)
    and may not write. *)

val begin_txn_at : t -> txn -> level:Level.t -> start_ts:int -> unit
(** Time travel (§4.2): begin a multiversion transaction with an old
    Start-Timestamp. @raise Invalid_argument on locking engines. *)

val status : t -> txn -> status
val env : t -> txn -> Program.env
val step : t -> txn -> Program.op -> step_outcome

val abort_txn : ?reason:abort_reason -> t -> txn -> unit
(** Abort an active transaction from outside its program; no-op if
    already terminated. [reason] defaults to [Deadlock_victim]; the
    runtime also passes [Fault_injected], [Deadline_exceeded],
    [Certifier_abort] or [User_abort]. @raise Invalid_argument for
    engine-internal reasons (first-committer-wins, ...). *)

val forget : t -> txn -> unit
(** Release the engine's per-transaction state for a {e finished}
    transaction. Tids are dense and never reused, so without this every
    txn state stays resident for the whole run — the call is what keeps
    10^6-txn out-of-core runs flat. Terminal-status-guarded and
    idempotent; after it, [status]/[env] on the tid raise and
    [abort_txn] is a no-op. The locking engine serialises the call
    internally; the MV/timestamp tables are only safe to mutate under
    every stripe, so the runtime routes their forgets through its
    all-stripes exclusion. *)

val trace : t -> History.t

val trace_len : t -> int
(** Number of actions the engine has emitted so far, in O(1). The
    runtime's tracer reads it around each step to tag the step's trace
    event with the half-open range of history positions it produced —
    the bridge from oracle witnesses back to wall-clock moments. *)

val set_lock_hook : t -> (Locking.Lock_table.hook -> unit) -> unit
(** Install the lock-table observation hook (grants, conflicts with
    holders, releases, upgrade flags). Locking engines hook their one
    table; multiversion engines hook the Read Consistency write-lock
    table; timestamp ordering has no locks and ignores the hook. *)

val set_tear_hook : t -> (txn -> bool) -> unit
(** Install the torn-commit fault hook, consulted as the transaction's
    terminal record would be logged: the Commit record on the locking
    and timestamp engines ({!Lock_engine.set_tear_hook}), the Vcommit
    stamp on the multiversion engine ({!Mv_engine.set_tear_hook} — the
    Vinstalls made the log, the stamp did not). *)

val set_prune_hook : t -> ((key * txn) list -> unit) -> unit
(** Install the vacuum observation hook (multiversion engines only;
    no-op elsewhere): called with the (key, writer) pairs each vacuum
    buried, under the engine's all-stripes exclusion. The certifier
    retires its version-order entries on exactly these. *)

val set_trace_hook : t -> (int -> History.Action.t -> unit) -> unit
(** Install a trace observation hook, called with [(position, action)]
    as each action is appended to the history — serialised and in
    history order on every family. The online certifier's feed. Install
    before workers spawn; the hook must only take leaf locks. *)

val final_state : t -> (key * value) list
val wal : t -> Storage.Wal.t option
(** The write-ahead log. Every family logs: single-version records from
    the locking and timestamp engines, versioned records from the
    multiversion engine. *)

val wal_sync : t -> unit
(** Group-commit durability point ({!Storage.Wal.sync}), called by the
    runtime after a commit step returns and its stripes are released. *)

val family : t -> [ `Locking | `Mv | `Timestamp ]
(** The engine family this instance was created with. *)

val lock_events : t -> Locking.Lock_table.event list option
(** The lock table's audit log (locking engines only). *)

val lock_stats : t -> Locking.Lock_table.stats option
(** Cumulative lock-table grant/conflict/release counters (locking engines
    only). *)

val version_store : t -> Storage.Version_store.t option
(** The version store (multiversion engines only). *)
