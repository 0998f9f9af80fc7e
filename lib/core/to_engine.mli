(** Strict timestamp-ordering scheduler ([BHG] Chapter 4): the classic
    lock-free serializable implementation the ANSI phenomena-based
    definitions were meant to admit (§2.2). Conflicts surface as
    [Too_late] aborts (younger transactions win items they touched
    first); strict reads wait behind uncommitted writers, and waits only
    ever point from younger to older, so deadlock is impossible.

    Phantom safety relies on a virtual membership item written by
    inserts, deletes and membership-changing updates of the configured
    predicates; declare the predicates the workload scans.

    Prefer the level-agnostic {!Engine} front end. *)

module Action = History.Action

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | Too_late
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
  ?wal_dir:string ->
  ?wal_segment_bytes:int ->
  ?checkpoint_every:int ->
  ?retain_trace:bool ->
  unit ->
  t
(** The T/O scheduler updates its store in place with before-image undo
    lists — the lock engine's shape — so it logs the standard
    Begin/Update/Commit/Abort records and reuses the single-version
    {!Storage.Recovery} unchanged (strictness excludes P0, so
    before-image undo is sound). Out-of-core options mirror
    {!Lock_engine.create}: [wal_dir] (segmented on-disk log with group
    commit, and [wal_segment_bytes]), [checkpoint_every] > 0
    (checkpoint + truncate every that many commits), [retain_trace] =
    false (drop the in-memory action list; the trace hook and
    {!trace_len} still run). *)

val begin_txn : t -> txn -> unit
(** Assigns the transaction's (monotonic) timestamp. *)

val status : t -> txn -> status
val env : t -> txn -> Program.env
val step : t -> txn -> Program.op -> step_outcome
val abort_txn : t -> txn -> reason:abort_reason -> unit
val trace : t -> History.t

val trace_len : t -> int
(** Number of actions emitted so far (O(1)); see {!Lock_engine.trace_len}. *)

val set_trace_hook : t -> (int -> Action.t -> unit) -> unit
(** Trace observation hook, called with [(position, action)] on each
    append; see {!Lock_engine.set_trace_hook}. *)

val set_tear_hook : t -> (txn -> bool) -> unit
(** Install the torn-commit fault hook, consulted as the Commit record
    would be logged; see {!Lock_engine.set_tear_hook}. *)

val wal : t -> Storage.Wal.t

val wal_sync : t -> unit
(** Group-commit durability point ({!Storage.Wal.sync}). *)

val forget : t -> txn -> unit
(** Drop a finished transaction's state (no-op while active or for an
    unknown tid). Must run under the same all-stripes exclusion as the
    engine's steps. *)

val store : t -> Storage.Store.t
(** The single-version store (the virtual membership item never appears
    in it). *)

val final_state : t -> (key * value) list
