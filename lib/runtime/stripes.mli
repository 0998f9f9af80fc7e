(** Striped synchronization primitives for the multicore runtime.

    A stripe set is a fixed array of mutexes indexed by key hash: callers
    that touch different stripes never contend, which is the first step
    from a single coarse latch toward a scalable lock table and store
    (ROADMAP: striped lock table tuning).

    {!Counter} is a sharded counter in the style of LongAdder: increments
    land on a per-domain atomic cell, so hot counters (commits, lock
    waits) do not serialize the worker pool on one cache line; [sum]
    folds the cells. *)

type t

val create : int -> t
(** [create n] makes a set of [max 1 n] stripes. *)

val size : t -> int

val stripe_of_key : t -> string -> int
(** The stripe a key hashes to — {!Storage.Shard.of_key}, the same map
    the sharded store and striped lock table index by. *)

val acquire : ?spin:int -> t -> int -> bool
(** Lock stripe [i] (must be a valid index), returning [true] iff the
    mutex was contended — i.e. a first [try_lock] failed and the caller
    had to wait. A contended acquire retries [try_lock] up to [spin]
    times (default 0) with {!Domain.cpu_relax} before it parks. Pair
    with {!release}. *)

val release : t -> int -> unit

val with_index : t -> int -> (unit -> 'a) -> 'a
(** Run a function holding the stripe [i mod size]. *)

val with_key : t -> string -> (unit -> 'a) -> 'a
(** Run a function holding the key's stripe. *)

module Counter : sig
  type t

  val create : ?stripes:int -> unit -> t
  val add : t -> int -> unit
  val incr : t -> unit

  val sum : t -> int
  (** Fold all cells. Each cell is an [Atomic.t], so a live sum never
      tears a cell and — the counter being add-only — never decreases
      between two reads. A live sum can lag increments that land on
      already-folded cells mid-fold; it is exact once writers are
      quiescent. This is the contract {!Metrics.snapshot}'s live reads
      are built on. *)
end
