(** The multiversion engine: Snapshot Isolation with First-Committer-Wins
    (§4.2), its First-Updater-Wins ablation, and Oracle Read Consistency
    (§4.3, per-statement snapshots with first-writer-wins write locks).

    Prefer the level-agnostic {!Engine} front end; this module is exposed
    for tests and for direct access to the version store. *)

module Action = History.Action

type txn = Action.txn
type key = Action.key
type value = Action.value

type mv_level =
  | Snapshot_isolation
  | Read_consistency
  | Serializable_snapshot
      (** SI plus commit-time read validation (conservative SSI) *)

type abort_reason =
  | User_abort
  | Deadlock_victim
  | First_committer_wins
  | First_updater_wins
  | Serialization_failure
      (** commit-time read validation failed (Serializable SI) *)
  | Fault_injected  (** injected by a fault plan *)
  | Deadline_exceeded  (** the transaction ran past its deadline *)
  | Certifier_abort
      (** the online certifier doomed it: one of its actions closed a
          dependency cycle *)

type status = Active | Committed | Aborted of abort_reason
type step_outcome = Progress | Blocked of txn list | Finished

type t

val create :
  initial:(key * value) list ->
  predicates:Storage.Predicate.t list ->
  ?first_updater_wins:bool ->
  ?wal_dir:string ->
  ?wal_segment_bytes:int ->
  ?checkpoint_every:int ->
  ?retain_trace:bool ->
  unit ->
  t
(** Out-of-core options, mirroring {!Lock_engine.create}: [wal_dir] puts
    the versioned WAL on disk (segmented, with group commit;
    [wal_segment_bytes] passes through to {!Storage.Wal.create});
    [checkpoint_every] > 0 writes a {!Storage.Wal.record.Vcheckpoint} —
    vacuuming first, then truncating the log behind the image — every
    that many commits; [retain_trace] = false drops the in-memory action
    list (the trace hook and {!trace_len} still run). Whatever the
    checkpoint setting, the engine also runs {!vacuum} itself every
    1,024 commits. *)

val begin_txn : ?read_only:bool -> t -> txn -> level:mv_level -> unit
(** Takes the snapshot (Start-Timestamp) now. [read_only] transactions'
    writes raise. *)

val begin_txn_at : t -> txn -> level:mv_level -> start_ts:Storage.Version_store.ts -> unit
(** Time travel (§4.2): begin with an explicit old Start-Timestamp. *)

val is_read_only : t -> txn -> bool

val status : t -> txn -> status
val env : t -> txn -> Program.env
val step : t -> txn -> Program.op -> step_outcome
val abort_txn : t -> txn -> reason:abort_reason -> unit
val trace : t -> History.t

val trace_len : t -> int
(** Number of actions emitted so far (O(1)); see {!Lock_engine.trace_len}. *)

val set_lock_hook : t -> (Locking.Lock_table.hook -> unit) -> unit
(** Observation hook on the engine's write-lock table (used only by the
    Read Consistency protocol's updatable cursors). *)

val set_trace_hook : t -> (int -> Action.t -> unit) -> unit
(** Trace observation hook, called with [(position, action)] on each
    append; see {!Lock_engine.set_trace_hook}. *)

val set_tear_hook : t -> (txn -> bool) -> unit
(** Install the torn-commit fault hook, consulted as the
    {!Storage.Wal.record.Vcommit} stamp would be logged. Returning
    [true] simulates a crash tearing the stamp off the WAL tail after
    the Vinstalls made it: the versions never became visible and the
    transaction never committed — it rolls back (status
    [Aborted Fault_injected]) and the runtime retries the attempt.
    Install before workers spawn. *)

val set_prune_hook : t -> ((key * txn) list -> unit) -> unit
(** Install the vacuum observation hook, called with the (key, writer)
    pairs of the versions each vacuum buried — under the same
    all-stripes exclusion the commit step runs in. The certifier retires
    its version-order entries on exactly these. *)

val wal : t -> Storage.Wal.t
(** The versioned write-ahead log. *)

val wal_sync : t -> unit
(** Group-commit durability point ({!Storage.Wal.sync}); the runtime
    calls it after a commit step returns and its stripes are released. *)

val forget : t -> txn -> unit
(** Drop a finished transaction's state (no-op while active or for an
    unknown tid). Must run under the same all-stripes exclusion as the
    engine's steps — the runtime routes it through its aux-exclusion
    path. *)

val final_state : t -> (key * value) list
val version_store : t -> Storage.Version_store.t
val now : t -> Storage.Version_store.ts
(** The last commit timestamp issued. *)

val oldest_active_snapshot : t -> Storage.Version_store.ts
(** The oldest Start-Timestamp among active transactions (or the current
    timestamp when none are active). *)

val vacuum : t -> int
(** Version garbage collection: discard versions no active or future
    snapshot can observe; returns how many versions were dropped. Logs a
    {!Storage.Wal.record.Watermark} so recovery replays the prune, and
    feeds the buried versions to the prune hook. The engine also calls
    it every 1,024 commits and at every checkpoint. Explicit time-travel
    reads older than the oldest active snapshot are no longer served
    correctly after a vacuum. *)
