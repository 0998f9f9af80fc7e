(** Write-ahead log with before/after images, making the paper's recovery
    argument for P0 (§3) executable.

    {2 Torn-tail semantics}

    A crash can cut the log mid-append: the newest record's header (its
    type and transaction id) is readable but its payload is not durable.
    [prefix]/[torn_prefix] build such crash images; [intact] and
    [torn_tail] split a log into the records a recovery manager may
    believe and the torn one it must not. Because records are logged
    before the store is written (WAL discipline), a torn [Update] means
    the corresponding data write never happened, and a torn
    [Commit]/[Abort] never took effect — so [committed], [aborted] and
    [losers] are computed over the intact records only. In particular a
    transaction whose terminal record is the torn tail is still in
    flight and must be undone.

    The multiversion records obey the same rule. A version reaches the
    log as [Vinstall] (installed, uncommitted) and becomes visible only
    with the transaction's [Vcommit] stamp; a torn [Vinstall] means the
    version never existed, and a transaction whose [Vinstall]s are
    intact but whose [Vcommit] is torn (or missing) is in flight — its
    installed versions never became visible and recovery must discard
    them. That is the MV form of the restore-or-not rule: there is
    nothing to restore, only unstamped versions to drop.

    {2 Backends}

    [create ()] is the in-memory log, holding u32-length-prefixed binary
    records in 64 KiB chunks. [create ~dir ()] appends the same records
    to segmented on-disk files instead — a new segment every
    [segment_bytes], the finished segment
    fsync'd at rotation — with durability batched by {!sync} (group
    commit) and the log kept bounded by {!checkpoint} truncation. Crash
    images built from a disk log ([prefix]/[torn_prefix]/[load]) are
    in-memory logs, so everything downstream (recovery, crash-point
    enumeration) is backend-agnostic. *)

type key = History.Action.key
type value = History.Action.value
type txn = History.Action.txn

type record =
  | Begin of txn
  | Update of { t : txn; k : key; before : value option; after : value option }
  | Commit of txn
  | Abort of txn
  | Checkpoint of {
      image : (key * value) list;
          (** committed store image at the checkpoint *)
      active : (txn * (key * value option) list) list;
          (** still-active transactions and their undo journals
              (key, before-image), newest first *)
    }
      (** A checkpoint record makes every earlier record redundant: replay
          starts from [image], and a carried active transaction that never
          reaches an intact terminal record is undone from its carried
          journal. Written by {!checkpoint}, which also truncates. *)
  | Vinstall of { t : txn; k : key; value : value option }
      (** A multiversion engine installed a version of [k] ([None] is a
          tombstone). Not yet visible: visibility needs the writer's
          {!constructor-Vcommit} stamp. *)
  | Vcommit of { t : txn; ts : int }
      (** Terminal record of a committed multiversion transaction: every
          [Vinstall] it logged becomes visible at Commit-Timestamp
          [ts]. *)
  | Watermark of int
      (** The snapshot watermark advanced: versions buried below it were
          pruned and no post-crash snapshot may start below it. *)
  | Vcheckpoint of {
      chains : (key * Version_store.version list) list;
          (** per-key committed version chains, newest first *)
      next_ts : int;  (** commit-timestamp clock at the checkpoint *)
      watermark : int;  (** snapshot watermark at the checkpoint *)
      active : txn list;
          (** transactions in flight — their writes are privately
              buffered (not in the chains), so unlike
              {!constructor-Checkpoint} no undo journal is carried *)
    }
      (** The multiversion checkpoint: replay starts from [chains].
          Written by {!checkpoint_record}, which also truncates. *)

val pp_record : record Fmt.t

type t

val create :
  ?dir:string -> ?segment_bytes:int -> ?group_commit:bool -> unit -> t
(** No [dir]: in-memory log, as before. With [dir] (created if missing):
    segmented on-disk log rotating every [segment_bytes] (default 4 MiB,
    min 512 B). [group_commit] (default [true]) batches concurrent
    {!sync} calls into one fsync; [false] is the per-commit-fsync
    baseline. *)

val append : t -> record -> unit
(** Buffers to the current segment on the disk backend — durable only
    after {!sync} (or a segment rotation). *)

val sync : t -> unit
(** Group commit: make every record appended so far durable. The first
    caller becomes the leader and fsyncs once for the whole batch;
    concurrent callers covered by that batch return without their own
    fsync. No-op on the in-memory backend. *)

val checkpoint :
  t ->
  image:(key * value) list ->
  active:(txn * (key * value option) list) list ->
  unit
(** Write a [Checkpoint] record at the head of a fresh segment and unlink
    every segment wholly below it; the in-memory backend drops the
    records behind the checkpoint. The caller must pass a consistent
    committed [image] and the undo journals of the transactions [active]
    at that instant (the lock engine holds all stripes when it calls
    this). *)

val checkpoint_record : t -> record -> unit
(** The general form of {!checkpoint}: write any record that fully
    captures the replay base ([Checkpoint] or [Vcheckpoint]) at the head
    of a fresh segment and truncate everything below it. *)

val close : t -> unit
(** Flush and close the disk backend. No-op in memory. *)

val load : dir:string -> t
(** Reopen a log directory after a crash: decode the surviving segments
    into an in-memory log image. A trailing partially-written record is
    dropped — it never became durable. *)

val records : t -> record list
(** In append order, including the torn tail when there is one. The disk
    backend decodes its live segments (post-truncation). *)

val intact : t -> record list
(** In append order, excluding the torn tail: the trustworthy log. *)

val torn_tail : t -> record option
(** The torn newest record of a crash image built by [torn_prefix];
    [None] for a live log or an untorn prefix. *)

val length : t -> int
(** Live (post-truncation) record count. O(1). *)

val committed : t -> txn list
(** Transactions with an intact [Commit] or [Vcommit]. A terminal record
    torn off the tail never took effect. *)

val aborted : t -> txn list

val losers : t -> txn list
(** Transactions with an intact [Begin] — or carried in a leading
    [Checkpoint]/[Vcheckpoint]'s active list — but no intact terminal
    record ([Commit], [Vcommit] or [Abort]): in flight at the crash.
    Includes a transaction whose terminal record is the torn tail, and a
    multiversion transaction whose [Vinstall]s survived without their
    [Vcommit] stamp — its versions never became visible. *)

val prefix : t -> int -> t
(** [prefix log n] is the crash image after exactly the first [n] records
    were made durable, [0 <= n <= length log]. Raises [Invalid_argument]
    out of range. *)

val torn_prefix : t -> int -> t
(** [torn_prefix log n] is the crash image where the [n]-th record was
    torn mid-write: records [1..n-1] are intact, record [n] is the torn
    tail, [1 <= n <= length log]. Raises [Invalid_argument] out of
    range. *)

type stats = {
  w_records : int;  (** live records, post-truncation *)
  w_segments : int;  (** live segment files (0 in memory) *)
  w_disk_bytes : int;  (** bytes across live segments *)
  w_syncs : int;  (** fsync batches issued by {!sync} *)
  w_checkpoints : int;
  w_truncated_segments : int;  (** segments unlinked below checkpoints *)
  w_batch_hist : (int * int) list;
      (** (commit-batch-size bucket upper bound, fsyncs): the group-commit
          evidence — at high concurrency the mass sits in buckets > 1 *)
}

val stats : t -> stats
val pp : t Fmt.t
