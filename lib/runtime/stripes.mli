(** Striped synchronization primitives for the multicore runtime.

    A stripe set is a fixed array of mutexes indexed by key hash: callers
    that touch different stripes never contend, which is the first step
    from a single coarse latch toward a scalable lock table and store
    (ROADMAP: striped lock table tuning).

    {!Counter} is a bank of sharded counters in the style of LongAdder:
    increments land on a per-domain atomic cell, so hot counters
    (commits, lock waits) do not serialize the worker pool on one cache
    line; a sum folds one counter's cells. *)

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

module Counter : sig
  type t

  val create : ?stripes:int -> ?counters:int -> unit -> t
  (** [stripes] (default 16) cells per counter; [counters] (default 1)
      counters, indexed [0 .. counters - 1]. *)

  val add_at : t -> int -> int -> unit
  (** [add_at t i n] adds [n] to counter [i]. *)

  val incr : t -> unit
  (** Add 1 to counter 0. *)

  val sum : t -> int
  (** Fold counter 0's cells. Each cell is an [Atomic.t], so a live sum never
      tears a cell and — the counter being add-only — never decreases
      between two reads. A live sum can lag increments that land on
      already-folded cells mid-fold; it is exact once writers are
      quiescent. This is the contract {!Metrics.snapshot}'s live reads
      are built on. *)

  val sum_at : t -> int -> int
  (** [sum] of counter [i]. *)
end
