(* The unified engine: dispatches transaction programs either to the
   locking scheduler (Table 2 protocols, possibly at mixed levels) or to
   the multiversion engine (Snapshot Isolation / Oracle Read Consistency).
   Lock-based and multiversion levels cannot share one store — the former
   updates in place, the latter reads committed snapshots — so an engine
   instance is one family or the other; within a family, levels mix
   freely (the paper's introduction scenario). *)

module Action = History.Action
module Level = Isolation.Level
module Predicate = Storage.Predicate

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | First_committer_wins
  | First_updater_wins
  | Serialization_failure
  | Too_late
  | Fault_injected
  | Deadline_exceeded
  | Certifier_abort

let pp_abort_reason ppf = function
  | User_abort -> Fmt.string ppf "user abort"
  | Deadlock_victim -> Fmt.string ppf "deadlock victim"
  | First_committer_wins -> Fmt.string ppf "first-committer-wins"
  | First_updater_wins -> Fmt.string ppf "first-updater-wins"
  | Serialization_failure -> Fmt.string ppf "serialization failure"
  | Too_late -> Fmt.string ppf "timestamp too late"
  | Fault_injected -> Fmt.string ppf "fault injected"
  | Deadline_exceeded -> Fmt.string ppf "deadline exceeded"
  | Certifier_abort -> Fmt.string ppf "certifier abort"

type status = Active | Committed | Aborted of abort_reason

type step_outcome = Progress | Blocked of txn list | Finished

type t =
  | Locking of Lock_engine.t
  | Mv of Mv_engine.t
  | Timestamp of To_engine.t

let family_of_levels levels =
  match List.sort_uniq compare (List.map Level.family levels) with
  | [] | [ `Locking ] -> `Locking
  | [ `Mv ] -> `Mv
  | [ `Timestamp ] -> `Timestamp
  | _ ->
    let fam l =
      match Level.family l with
      | `Locking -> "locking"
      | `Mv -> "multiversion"
      | `Timestamp -> "timestamp"
    in
    invalid_arg
      (Fmt.str
         "Engine.create: cannot mix engine families in one execution (they do \
          not share a store): %s. Declare one family's levels, or map the mix \
          onto a single family with Isolation.Lattice.strengthen."
         (String.concat ", "
            (List.map
               (fun l -> Fmt.str "%s (%s)" (Level.slug l) (fam l))
               (List.sort_uniq compare levels))))

let create ~initial ~predicates ?(stripes = 1) ?(audit = true)
    ?(first_updater_wins = false) ?(next_key_locking = false)
    ?(update_locks = false) ?wal_dir ?wal_segment_bytes ?checkpoint_every
    ?retain_trace ~family () =
  match family with
  | `Locking ->
    Locking
      (Lock_engine.create ~initial ~predicates ~stripes ~audit ~next_key_locking
         ~update_locks ?wal_dir ?wal_segment_bytes ?checkpoint_every
         ?retain_trace ())
  | `Mv ->
    Mv
      (Mv_engine.create ~initial ~predicates ~first_updater_wins ?wal_dir
         ?wal_segment_bytes ?checkpoint_every ?retain_trace ())
  | `Timestamp ->
    Timestamp
      (To_engine.create ~initial ~predicates ?wal_dir ?wal_segment_bytes
         ?checkpoint_every ?retain_trace ())

let mv_level = function
  | Level.Snapshot -> Mv_engine.Snapshot_isolation
  | Level.Oracle_read_consistency -> Mv_engine.Read_consistency
  | Level.Serializable_snapshot -> Mv_engine.Serializable_snapshot
  | l -> invalid_arg (Fmt.str "Engine: %s is not a multiversion level" (Level.name l))

let begin_txn ?read_only t tid ~level =
  match t with
  | Locking e -> Lock_engine.begin_txn ?read_only e tid ~level
  | Mv e -> Mv_engine.begin_txn ?read_only e tid ~level:(mv_level level)
  | Timestamp e ->
    if read_only = Some true then
      invalid_arg "Engine: the timestamp engine has no read-only mode";
    To_engine.begin_txn e tid

let begin_txn_at t tid ~level ~start_ts =
  match t with
  | Locking _ | Timestamp _ ->
    invalid_arg "Engine.begin_txn_at: only multiversion engines have snapshots"
  | Mv e -> Mv_engine.begin_txn_at e tid ~level:(mv_level level) ~start_ts

let lift_lock_status = function
  | Lock_engine.Active -> Active
  | Lock_engine.Committed -> Committed
  | Lock_engine.Aborted Lock_engine.User_abort -> Aborted User_abort
  | Lock_engine.Aborted Lock_engine.Deadlock_victim -> Aborted Deadlock_victim
  | Lock_engine.Aborted Lock_engine.Fault_injected -> Aborted Fault_injected
  | Lock_engine.Aborted Lock_engine.Deadline_exceeded -> Aborted Deadline_exceeded
  | Lock_engine.Aborted Lock_engine.Certifier_abort -> Aborted Certifier_abort

let lift_mv_status = function
  | Mv_engine.Active -> Active
  | Mv_engine.Committed -> Committed
  | Mv_engine.Aborted Mv_engine.User_abort -> Aborted User_abort
  | Mv_engine.Aborted Mv_engine.Deadlock_victim -> Aborted Deadlock_victim
  | Mv_engine.Aborted Mv_engine.First_committer_wins -> Aborted First_committer_wins
  | Mv_engine.Aborted Mv_engine.First_updater_wins -> Aborted First_updater_wins
  | Mv_engine.Aborted Mv_engine.Serialization_failure -> Aborted Serialization_failure
  | Mv_engine.Aborted Mv_engine.Fault_injected -> Aborted Fault_injected
  | Mv_engine.Aborted Mv_engine.Deadline_exceeded -> Aborted Deadline_exceeded
  | Mv_engine.Aborted Mv_engine.Certifier_abort -> Aborted Certifier_abort

let lift_to_status = function
  | To_engine.Active -> Active
  | To_engine.Committed -> Committed
  | To_engine.Aborted To_engine.User_abort -> Aborted User_abort
  | To_engine.Aborted To_engine.Deadlock_victim -> Aborted Deadlock_victim
  | To_engine.Aborted To_engine.Too_late -> Aborted Too_late
  | To_engine.Aborted To_engine.Fault_injected -> Aborted Fault_injected
  | To_engine.Aborted To_engine.Deadline_exceeded -> Aborted Deadline_exceeded
  | To_engine.Aborted To_engine.Certifier_abort -> Aborted Certifier_abort

let status t tid =
  match t with
  | Locking e -> lift_lock_status (Lock_engine.status e tid)
  | Mv e -> lift_mv_status (Mv_engine.status e tid)
  | Timestamp e -> lift_to_status (To_engine.status e tid)

let env t tid =
  match t with
  | Locking e -> Lock_engine.env e tid
  | Mv e -> Mv_engine.env e tid
  | Timestamp e -> To_engine.env e tid

let step t tid op =
  let lift = function
    | Lock_engine.Progress -> Progress
    | Lock_engine.Blocked holders -> Blocked holders
    | Lock_engine.Finished -> Finished
  and lift_mv = function
    | Mv_engine.Progress -> Progress
    | Mv_engine.Blocked holders -> Blocked holders
    | Mv_engine.Finished -> Finished
  in
  match t with
  | Locking e -> lift (Lock_engine.step e tid op)
  | Mv e -> lift_mv (Mv_engine.step e tid op)
  | Timestamp e -> (
    match To_engine.step e tid op with
    | To_engine.Progress -> Progress
    | To_engine.Blocked holders -> Blocked holders
    | To_engine.Finished -> Finished)

(* Which shards a step touches, for the runtime's stripe planner. Only
   the locking engine is striped; the multiversion and timestamp engines
   share unsharded structures and always run under every stripe. *)
type footprint = Lock_engine.footprint = All | Keys of { keys : key list; pred : bool }

let footprint t tid op =
  match t with
  | Locking e -> Lock_engine.footprint e tid op
  | Mv _ | Timestamp _ -> All

(* Externally-initiated aborts carry the reasons the runtime can decide
   on its own: deadlock victim (the default), an injected fault, a blown
   deadline, or a certifier doom. Engine-internal reasons
   (first-committer-wins, ...) only arise from the engines themselves. *)
let abort_txn ?(reason = Deadlock_victim) t tid =
  match t with
  | Locking e ->
    let reason =
      match reason with
      | Deadlock_victim -> Lock_engine.Deadlock_victim
      | Fault_injected -> Lock_engine.Fault_injected
      | Deadline_exceeded -> Lock_engine.Deadline_exceeded
      | User_abort -> Lock_engine.User_abort
      | Certifier_abort -> Lock_engine.Certifier_abort
      | _ ->
        invalid_arg "Engine.abort_txn: reason is internal to an engine"
    in
    Lock_engine.abort_txn e tid ~reason
  | Mv e ->
    let reason =
      match reason with
      | Deadlock_victim -> Mv_engine.Deadlock_victim
      | Fault_injected -> Mv_engine.Fault_injected
      | Deadline_exceeded -> Mv_engine.Deadline_exceeded
      | User_abort -> Mv_engine.User_abort
      | Certifier_abort -> Mv_engine.Certifier_abort
      | _ ->
        invalid_arg "Engine.abort_txn: reason is internal to an engine"
    in
    Mv_engine.abort_txn e tid ~reason
  | Timestamp e ->
    let reason =
      match reason with
      | Deadlock_victim -> To_engine.Deadlock_victim
      | Fault_injected -> To_engine.Fault_injected
      | Deadline_exceeded -> To_engine.Deadline_exceeded
      | User_abort -> To_engine.User_abort
      | Certifier_abort -> To_engine.Certifier_abort
      | _ ->
        invalid_arg "Engine.abort_txn: reason is internal to an engine"
    in
    To_engine.abort_txn e tid ~reason

(* Release a finished transaction's per-txn engine state. The locking
   engine clears its slot under its registration mutex, so the call is
   safe from the worker that owns the finished attempt without holding
   any stripes. The MV and timestamp engines step under *every* stripe
   (their footprint is [All]) and mutate plain transaction tables, so
   the runtime must call this for them under the same all-stripes
   exclusion (Pool routes it through with_aux_exclusion). *)
let forget t tid =
  match t with
  | Locking e -> Lock_engine.forget e tid
  | Mv e -> Mv_engine.forget e tid
  | Timestamp e -> To_engine.forget e tid

let trace = function
  | Locking e -> Lock_engine.trace e
  | Mv e -> Mv_engine.trace e
  | Timestamp e -> To_engine.trace e

let trace_len = function
  | Locking e -> Lock_engine.trace_len e
  | Mv e -> Mv_engine.trace_len e
  | Timestamp e -> To_engine.trace_len e

let set_lock_hook t f =
  match t with
  | Locking e -> Lock_engine.set_lock_hook e f
  | Mv e -> Mv_engine.set_lock_hook e f
  | Timestamp _ -> ()

(* Torn-commit injection: every family logs a terminal record now —
   Commit for the locking and timestamp engines, the Vcommit stamp for
   the multiversion one — and the hook is consulted as it would be
   written. *)
let set_tear_hook t f =
  match t with
  | Locking e -> Lock_engine.set_tear_hook e f
  | Mv e -> Mv_engine.set_tear_hook e f
  | Timestamp e -> To_engine.set_tear_hook e f

(* Vacuum observation (multiversion only): the certifier retires its
   version-order entries on the buried (key, writer) pairs. *)
let set_prune_hook t f =
  match t with
  | Mv e -> Mv_engine.set_prune_hook e f
  | Locking _ | Timestamp _ -> ()

let set_trace_hook t f =
  match t with
  | Locking e -> Lock_engine.set_trace_hook e f
  | Mv e -> Mv_engine.set_trace_hook e f
  | Timestamp e -> To_engine.set_trace_hook e f

let final_state = function
  | Locking e -> Lock_engine.final_state e
  | Mv e -> Mv_engine.final_state e
  | Timestamp e -> To_engine.final_state e

let wal = function
  | Locking e -> Some (Lock_engine.wal e)
  | Mv e -> Some (Mv_engine.wal e)
  | Timestamp e -> Some (To_engine.wal e)

(* Durability point after a commit step, outside the stripe critical
   section (group commit). *)
let wal_sync = function
  | Locking e -> Lock_engine.wal_sync e
  | Mv e -> Mv_engine.wal_sync e
  | Timestamp e -> To_engine.wal_sync e

let family = function
  | Locking _ -> `Locking
  | Mv _ -> `Mv
  | Timestamp _ -> `Timestamp

let lock_events = function
  | Locking e -> Some (Lock_engine.lock_events e)
  | Mv _ | Timestamp _ -> None

let lock_stats = function
  | Locking e -> Some (Lock_engine.lock_stats e)
  | Mv _ | Timestamp _ -> None
let version_store = function
  | Locking _ | Timestamp _ -> None
  | Mv e -> Some (Mv_engine.version_store e)
