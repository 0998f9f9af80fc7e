(** The locking scheduler: transaction programs over a single-version
    store under the lock protocols of Table 2, with per-transaction
    isolation levels, WAL logging and before-image rollback.

    Prefer the level-agnostic {!Engine} front end; this module is exposed
    for tests and for direct access to the WAL and store. *)

module Action = History.Action

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | Fault_injected
      (** injected by a fault plan: spurious step failure or torn commit *)
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
  ?stripes:int ->
  ?audit:bool ->
  ?next_key_locking:bool ->
  ?update_locks:bool ->
  ?wal_dir:string ->
  ?wal_segment_bytes:int ->
  ?checkpoint_every:int ->
  ?retain_trace:bool ->
  unit ->
  t
(** [stripes] (default 1) shards the store and the lock table by key hash
    for the runtime's striped execution; the engine itself stays
    lock-free on the striped paths and relies on the caller holding the
    stripes named by {!footprint}. [audit] (default true) keeps the lock
    table's audit log; striped callers turn it off so the hot path shares
    no list. [next_key_locking] swaps the predicate-lock phantom guard
    for ARIES/KVL-style next-key locking on range predicates.
    [update_locks] makes for-update fetches take long U locks, trading
    upgrade deadlocks for blocking.

    Out-of-core options: [wal_dir] puts the WAL on disk (segmented, see
    {!Storage.Wal.create}, with group commit; [wal_segment_bytes] passes
    through); [checkpoint_every] > 0 writes a WAL checkpoint — and
    truncates the log behind it — every that many commits (both
    backends); [retain_trace] = false drops the in-memory action list
    (the trace hook and {!trace_len} still run) for runs too large to
    materialize a history. *)

(** The shards a step touches: [All] — hold every stripe (scans, cursor
    opens, commits, aborts, read-only snapshot reads, and everything
    under next-key locking) — or the named data [keys] plus, for writers,
    the predicate bucket. *)
type footprint = All | Keys of { keys : key list; pred : bool }

val footprint : t -> txn -> Program.op -> footprint
(** Computed on the owning worker before the step, from owner-local state
    only. Conservative: whenever in doubt the answer is [All]. *)

val begin_txn : ?read_only:bool -> t -> txn -> level:Isolation.Level.t -> unit
(** [read_only] runs the transaction by the Multiversion Mixed Method
    ([BHG]): lock-free reads of the committed snapshot as of begin; its
    writes raise. @raise Invalid_argument for multiversion levels. *)

val status : t -> txn -> status
val env : t -> txn -> Program.env
val step : t -> txn -> Program.op -> step_outcome
val abort_txn : t -> txn -> reason:abort_reason -> unit

val forget : t -> txn -> unit
(** Drop a finished transaction's slot (no-op while it is still active,
    or for a tid never begun). Serialised against {!begin_txn}'s slot
    array growth by the registration mutex. *)

val trace : t -> History.t

val trace_len : t -> int
(** Number of actions emitted so far (O(1)) — the instrumentation point
    the runtime's tracer uses to tag each step with the history
    positions it produced. *)

val final_state : t -> (key * value) list
val wal : t -> Storage.Wal.t

val wal_sync : t -> unit
(** Make every WAL record appended so far durable ({!Storage.Wal.sync} —
    group commit). The runtime calls it after a commit step returns and
    its stripes are released, so concurrent committers share one fsync. *)

val store : t -> Storage.Store.t

val lock_events : t -> Locking.Lock_table.event list
(** The lock table's audit log, for discipline analysis. *)

val lock_stats : t -> Locking.Lock_table.stats
(** Cumulative grant/conflict/release/upgrade counters. *)

val set_lock_hook : t -> (Locking.Lock_table.hook -> unit) -> unit
(** Install the lock table's observation hook (see
    {!Locking.Lock_table.set_hook}); the runtime's tracer uses it to put
    lock grants/conflicts/releases on per-transaction timelines. *)

val set_tear_hook : t -> (txn -> bool) -> unit
(** Install the torn-commit fault hook, consulted as the Commit record
    would be logged. Returning [true] simulates a crash tearing the
    record off the WAL tail: the transaction never committed — it rolls
    back with compensation (status [Aborted Fault_injected]) and the
    runtime retries the attempt. Install before workers spawn. *)

val set_trace_hook : t -> (int -> Action.t -> unit) -> unit
(** Install a trace observation hook, called with [(position, action)]
    under the trace mutex as each action is appended — a serialised,
    history-ordered feed for the online certifier. Install before
    workers spawn; the hook must only take leaf locks of its own. *)
