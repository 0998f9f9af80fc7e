(** The trace event vocabulary: the full transaction lifecycle as
    timestamped facts — attempt start, engine step begin/end, lock
    grant/conflict/release (via the {!Locking.Lock_table} hook), backoff
    sleeps, deadlock victim selection, commit/abort with reason.

    [Step_end] carries the half-open range [hpos0, hpos1) of history
    positions the step appended to the engine trace; that range is the
    bridge from the oracle's positional witnesses back to wall-clock
    moments and workers (anomaly provenance). *)

type outcome = Progress | Blocked of int list | Finished

type kind =
  | Attempt_begin of { job : int; name : string; attempt : int; level : string }
  | Step_begin of { op : string }
  | Step_end of { op : string; outcome : outcome; hpos0 : int; hpos1 : int }
  | Lock_grant of { req : string; upgrade : bool }
  | Lock_conflict of { req : string; upgrade : bool; holders : int list }
  | Lock_release of { count : int }
  | Lock_wait of { slept_ns : int }
      (** parked outside the stripes after a Blocked step, until woken *)
  | Stripe_wait of { stripe : int }
      (** found a stripe mutex held by another worker while acquiring the
          step's stripe set (striped execution contention) *)
  | Retry_backoff of { slept_ns : int; next_attempt : int }
      (** slept between attempts; attributed to the failed attempt's tid *)
  | Deadlock_victim of { cycle : int list }
  | Stall_restart
  | Fault_inject of { klass : string }
      (** the fault plan fired: ["stall"], ["step_fail"], ["victim"] or
          ["torn_commit"] *)
  | Deadline_exceeded of { elapsed_ns : int; budget_ns : int }
      (** the attempt blew its deadline and aborted itself *)
  | Watchdog of { worker : int; stalled_ns : int }
      (** the watchdog saw [worker] make no step progress for
          [stalled_ns]; attributed to that worker's current tid *)
  | Crash_replay of { points : int; torn : int; failures : int }
      (** post-run crash-point enumeration over the WAL *)
  | Dep_edge of { src : int; dst : int; dep : string }
      (** the online certifier added a dependency edge [src -> dst];
          [dep] is ["wr"], ["ww"] or ["rw"] (anti-dependency) *)
  | Dep_cycle of {
      cycle : int list;
      dep : string;
      src : int;
      dst : int;
      victim_level : string option;
    }
      (** the [src -> dst] edge of class [dep] would have closed
          [cycle] (witness format of {!Graph.Digraph.find_cycle});
          attributed to the transaction whose action offered the edge.
          Under the mixed criterion [victim_level] names the declared
          level of the doomed (or first harmed) member *)
  | Conn_open of { conn : int }
      (** the server accepted connection [conn] *)
  | Conn_close of { conn : int; reason : string }
      (** the connection ended: ["eof"], ["protocol_error"], ["fault"]
          (injected drop) or ["drain"] *)
  | Session_open of { conn : int; session : int }
      (** a session opened on [conn]; attributed tid 0 until its first
          transaction begins *)
  | Session_close of { session : int; txns : int }
      (** the session closed after completing [txns] transactions *)
  | Session_park of { session : int }
      (** the session left its worker (blocked on a lock or backing off)
          to resume when its timer expires *)
  | Session_resume of { session : int }
      (** a worker picked the parked session back up *)
  | Commit
  | Abort of { reason : string }

type t = { ts_ns : int; tid : int; worker : int; kind : kind }

val tag : kind -> string
(** Stable machine-readable name, used as the [args.k] discriminator in
    exported files. *)

val pp : t Fmt.t
val pp_kind : kind Fmt.t
val pp_outcome : outcome Fmt.t

val to_args : t -> Json.t
(** Lossless encoding as a Chrome trace_event [args] object. *)

val of_args : Json.t -> t option
(** Inverse of {!to_args}; [None] for foreign/unknown events. *)

(** {2 Args helpers} — defaulted field lookups shared with {!Chrome}. *)

val get_int : ?default:int -> string -> Json.t -> int
val get_string : ?default:string -> string -> Json.t -> string
val get_bool : string -> Json.t -> bool
val get_ints : string -> Json.t -> int list
