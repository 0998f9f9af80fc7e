(** Lock table for the locking scheduler (§2.3 of the paper): Read/Write
    locks on data items and predicates, with the paper's phantom rule — a
    Write item lock (carrying before and after images) conflicts with a
    Read predicate lock whenever the write affects the predicate.

    Durations are the caller's policy (Table 2), expressed as tags for
    bulk release.

    The table can be {e striped}: item locks are partitioned into
    [stripes] buckets by key hash ({!Storage.Shard.of_key}); predicate
    locks live in one dedicated bucket. The table takes no locks itself —
    a striped caller must hold the stripe mutexes covering the buckets an
    operation touches (see the runtime's pool for the discipline). With
    the default single stripe every operation touches one item bucket and
    the table behaves exactly as before striping. *)

type key = History.Action.key
type value = History.Action.value
type txn = History.Action.txn

type request =
  | Read_item of key
  | Update_item of key
      (** U mode: taken by for-update fetches. Compatible with Read locks,
          incompatible with other Update or Write locks — the classical
          cure for upgrade deadlocks. *)
  | Write_item of { k : key; before : value option; after : value option }
  | Read_pred of Storage.Predicate.t
  | Write_pred of Storage.Predicate.t

val pp_request : request Fmt.t

val requests_conflict : request -> request -> bool
(** Conflict between locks of different owners: at least one Write, common
    (possibly phantom) item. Symmetric. *)

type tag =
  | Short            (** released immediately after the action *)
  | Cursor of string (** released when the named cursor moves or closes *)
  | Long             (** released at end of transaction *)

type t

val create : ?stripes:int -> ?audit:bool -> unit -> t
(** [create ~stripes ~audit ()] makes a table with [max 1 stripes] item
    buckets (default 1). [~audit:false] disables the {!events} audit log,
    whose single shared list would otherwise serialize striped callers;
    counters and hooks still fire. *)

val bucket_of_key : t -> key -> int
(** The item bucket a key's locks live in — {!Storage.Shard.of_key} over
    this table's stripe count. *)

val pred_bucket : t -> int
(** The index naming the predicate bucket in release scopes: the item
    bucket count, one past the last item bucket — mirroring the runtime's convention
    that the predicate stripe is the last, highest-ordered stripe. *)

(** The audit log: every grant and release, in order. *)
type event =
  | Acquired of { owner : txn; req : request; tag : tag }
  | Released of { owner : txn; count : int }

val events : t -> event list

type stats = { grants : int; conflicts : int; releases : int; upgrades : int }
(** Cumulative lock-table traffic: grant decisions (including redundant
    covers), refused acquire attempts, entries dropped by releases, and
    lock {e upgrades} — Write requests on an item the owner so far covers
    only with a Read or Update lock, the paper's canonical deadlock
    trigger. Upgrades are counted per request, granted or refused: the
    refused ones are the 2PL upgrade storm. *)

val stats : t -> stats

(** Live observation hook: fired synchronously on every grant decision,
    refusal and release. The runtime's tracing layer installs one to put
    lock traffic on per-transaction timelines; the default ([None])
    costs one branch per operation. *)
type hook =
  | On_grant of { owner : txn; req : request; tag : tag; upgrade : bool }
  | On_conflict of { owner : txn; req : request; upgrade : bool; holders : txn list }
  | On_release of { owner : txn; count : int }

val set_hook : t -> (hook -> unit) -> unit
val clear_hook : t -> unit

type verdict = Granted | Conflict of txn list

val acquire : t -> owner:txn -> tag:tag -> request -> verdict
(** Grant unless a conflicting lock is held by another transaction; on
    conflict, report the blockers. Locks already held by the owner that
    cover the request are promoted rather than duplicated. *)

val release : ?scope:int list -> t -> owner:txn -> tag:tag -> unit
(** Drop the owner's entries carrying [tag]. [?scope] restricts the
    release to the named buckets (item bucket indices and/or
    [pred_bucket]); a striped caller must scope step-local releases to
    buckets whose stripes it holds. [None] (the default) sweeps every
    bucket. *)

val release_all : t -> owner:txn -> unit
(** Drop every entry of the owner, across all buckets — end of
    transaction; a striped caller runs this with every stripe held. *)

val held : t -> owner:txn -> (request * tag) list
val owners : t -> txn list
val is_empty : t -> bool
val pp : t Fmt.t
