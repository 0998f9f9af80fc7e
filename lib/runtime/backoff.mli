(** Capped exponential backoff with full jitter, for transaction
    restarts. Each restart sleeps a uniformly random slice of the current
    window, then doubles the window from 200µs up to a 20ms cap — the
    classic recipe that de-synchronizes contending workers instead of
    letting them restart in lockstep and deadlock again (the 2PL upgrade
    storm). Lock waits do not back off: a blocked step parks until its
    holder terminates. *)

type t

val create : ?rng:Random.State.t -> unit -> t
(** A backoff state is owned by one worker; it is not thread-safe. *)

val reset : t -> unit
(** Back to the base window (call per job). *)

val wait : t -> unit
(** Sleep a jittered slice of the current window and escalate it. *)

val waits : t -> int
(** Total sleeps performed since creation. *)
