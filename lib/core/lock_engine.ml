(* The locking scheduler: executes transaction programs over a
   single-version store under the lock protocols of Table 2.

   Each transaction runs at its own protocol (mixed isolation levels within
   one execution, as in the paper's introduction). Every step either
   executes an operation — acquiring the locks its protocol prescribes,
   updating the store in place, logging before images to the WAL — or
   reports the transactions it is blocked on, leaving the operation to be
   retried. Aborts roll back by restoring before images. *)

module Action = History.Action
module Store = Storage.Store
module Version_store = Storage.Version_store
module Predicate = Storage.Predicate
module Wal = Storage.Wal
module Lock_table = Locking.Lock_table
module Protocol = Locking.Protocol

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | Fault_injected      (* injected by a fault plan (spurious failure, torn commit) *)
  | Deadline_exceeded   (* transaction ran past its deadline *)
  | Certifier_abort     (* the online certifier doomed it: it closed a dependency cycle *)

type status = Active | Committed | Aborted of abort_reason

type cursor = {
  mutable remaining : (key * value) list;
  mutable current : (key * value) option;
  for_update : bool;
}

type txn_state = {
  tid : txn;
  protocol : Protocol.t;
  read_only : bool;      (* [BHG] Multiversion Mixed Method: snapshot reads *)
  snapshot_ts : int;     (* commit timestamp visible to a read-only txn *)
  mutable status : status;
  mutable env : Program.env;
  mutable undo : (key * value option) list; (* before images, newest first *)
  cursors : (string, cursor) Hashtbl.t;
}

(* Shared state under striped execution. The pool guarantees that a step
   holds the stripe mutexes of every shard it touches (store shards, lock
   buckets), so those need no further protection. What transactions of
   *disjoint* footprints still share is protected here: the WAL has its
   own mutex, the trace has [trace_m], and [reg_m] covers the transaction
   registry together with [commit_ts] and the version store installs that
   must be atomic with respect to a beginner reading its snapshot
   timestamp. The registry itself is a tid-indexed array behind an
   [Atomic]: lookups — the per-step hot path, and the deadlock detector
   peeking at a victim — are lock-free; only [begin_txn] mutates it. *)
type t = {
  store : Store.t;
  vstore : Version_store.t; (* committed versions, for read-only snapshots *)
  mutable commit_ts : int;  (* under reg_m *)
  locks : Lock_table.t;
  wal : Wal.t;
  checkpoint_every : int;   (* commits between WAL checkpoints; 0 = never *)
  mutable commits_since_ckpt : int; (* under all stripes (commit footprint) *)
  retain_trace : bool;      (* keep the action list (out-of-core runs drop it) *)
  mutable trace : Action.t list; (* newest first; under trace_m *)
  trace_m : Mutex.t;
  trace_len : int Atomic.t;      (* = List.length trace, O(1) for tracing *)
  reg_m : Mutex.t;
  slots : txn_state option array Atomic.t; (* ring by tid; grown by begin *)
  predicates : Predicate.t list; (* annotated on writes for the detectors *)
  next_key_locking : bool;       (* phantom guard ablation *)
  update_locks : bool;           (* U locks on for-update fetches (ablation) *)
  (* Fault-injection hook consulted as the Commit record would be logged:
     [true] means the simulated crash tore the record off the WAL tail,
     so the transaction never committed and rolls back instead. Set once
     before workers spawn; read on worker domains. *)
  mutable tear_commit : (txn -> bool) option;
  (* Trace observation hook, called with (position, action) inside
     [trace_m] as each action is appended — a serialised, history-ordered
     action stream for the online certifier. Set once before workers
     spawn; must only take leaf locks of its own. *)
  mutable trace_hook : (int -> Action.t -> unit) option;
}

type step_outcome = Progress | Blocked of txn list | Finished

(* The virtual key after every real key, locked by scans of unbounded
   ranges and by inserts with no successor. *)
let infinity_key = "\255<infinity>"

let create ~initial ~predicates ?(stripes = 1) ?(audit = true)
    ?(next_key_locking = false) ?(update_locks = false) ?wal_dir
    ?wal_segment_bytes ?wal_group_commit ?(checkpoint_every = 0)
    ?(retain_trace = true) () =
  let stripes = max 1 stripes in
  {
    store = Store.of_list ~shards:stripes initial;
    vstore = Version_store.of_list initial;
    commit_ts = 0;
    locks = Lock_table.create ~stripes ~audit ();
    wal = Wal.create ?dir:wal_dir ?segment_bytes:wal_segment_bytes
        ?group_commit:wal_group_commit ();
    checkpoint_every;
    commits_since_ckpt = 0;
    retain_trace;
    trace = [];
    trace_m = Mutex.create ();
    trace_len = Atomic.make 0;
    reg_m = Mutex.create ();
    slots = Atomic.make (Array.make 8 None);
    predicates;
    next_key_locking;
    update_locks;
    tear_commit = None;
    trace_hook = None;
  }

let emit t action =
  Mutex.lock t.trace_m;
  if t.retain_trace then t.trace <- action :: t.trace;
  Atomic.incr t.trace_len;
  (match t.trace_hook with
  | Some f -> f (Atomic.get t.trace_len - 1) action
  | None -> ());
  Mutex.unlock t.trace_m

let trace t =
  Mutex.lock t.trace_m;
  let tr = t.trace in
  Mutex.unlock t.trace_m;
  List.rev tr

let trace_len t = Atomic.get t.trace_len

(* The slots are a ring indexed by [tid] modulo its power-of-two length;
   an entry belongs to [tid] only if its own [tid] matches. The ring need
   only span the tids still holding a slot, not every tid ever begun, so
   its size follows the oldest live transaction rather than the run's
   length. *)
let slot a tid = tid land (Array.length a - 1)

let find_state t tid =
  let a = Atomic.get t.slots in
  match a.(slot a tid) with
  | Some st as s when st.tid = tid -> s
  | _ -> None

let state t tid =
  match find_state t tid with
  | Some st -> st
  | None -> invalid_arg (Fmt.str "Lock_engine: unknown transaction %d" tid)

let begin_txn ?(read_only = false) t tid ~level =
  if tid < 0 then invalid_arg "Lock_engine: negative transaction id";
  let protocol = Protocol.for_level_exn level in
  let protocol =
    if t.next_key_locking then Protocol.with_next_key protocol else protocol
  in
  Mutex.lock t.reg_m;
  (* Double the ring until [tid]'s slot is free: entries at distinct
     slots of a ring stay at distinct slots of its double. *)
  let rec place a =
    match a.(slot a tid) with
    | Some st when st.tid <> tid ->
      let b = Array.make (2 * Array.length a) None in
      Array.iter (function Some st as e -> b.(slot b st.tid) <- e | None -> ()) a;
      Atomic.set t.slots b;
      place b
    | _ -> a
  in
  let a = place (Atomic.get t.slots) in
  a.(slot a tid) <-
    Some
      { tid; protocol; read_only; snapshot_ts = t.commit_ts; status = Active;
        env = Program.empty_env; undo = []; cursors = Hashtbl.create 2 };
  Mutex.unlock t.reg_m;
  Wal.append t.wal (Wal.Begin tid)

let status t tid = (state t tid).status
let env t tid = (state t tid).env

let duration_tag = function
  | Protocol.Short -> Some Lock_table.Short
  | Protocol.Long -> Some Lock_table.Long
  | Protocol.No_lock -> None

(* Acquire a lock if the protocol calls for one; [`Granted] also covers
   "no lock required". *)
let acquire t st duration req =
  match duration_tag duration with
  | None -> Lock_table.Granted
  | Some tag -> Lock_table.acquire t.locks ~owner:st.tid ~tag req

(* Step-local releases are scoped to the buckets the step's footprint
   covers — exactly the stripes the caller holds. [scope = None] (single
   stripe, or an all-stripes step) sweeps every bucket. *)
let release_short ?scope t st =
  Lock_table.release ?scope t.locks ~owner:st.tid ~tag:Lock_table.Short

(* Predicates (from the configured set) that a write of [k] from [before]
   to [after] affects — the annotation the P3/A3 detectors consume. *)
let affected_predicates t k ~before ~after =
  List.filter_map
    (fun p ->
      if Predicate.affected_by_write p k ~before ~after then
        Some (Predicate.name p)
      else None)
    t.predicates

(* Read-only transactions read the committed snapshot as of their begin,
   lock-free — the Multiversion Mixed Method ([BHG]; the paper notes
   Snapshot Isolation extends it). *)
let snapshot_read t st k =
  let v, writer =
    match Version_store.version_at t.vstore ~ts:st.snapshot_ts k with
    | Some ver -> (ver.Version_store.value, ver.Version_store.writer)
    | None -> (None, 0)
  in
  st.env <- Program.observe_read st.env k v;
  emit t (Action.read ~ver:writer ?value:v st.tid k);
  Progress

let snapshot_scan t st p =
  let rows = Version_store.scan_at t.vstore ~ts:st.snapshot_ts p in
  st.env <- Program.observe_scan st.env (Predicate.name p) rows;
  if List.exists (fun q -> Predicate.name q = Predicate.name p) t.predicates
  then emit t (Action.pred_read ~keys:(List.map fst rows) st.tid (Predicate.name p));
  Progress

let do_read ?scope t st k =
  if st.read_only then snapshot_read t st k
  else
  match acquire t st st.protocol.item_read (Lock_table.Read_item k) with
  | Lock_table.Conflict holders -> Blocked holders
  | Lock_table.Granted ->
    let v = Store.get t.store k in
    st.env <- Program.observe_read st.env k v;
    emit t (Action.read ?value:v st.tid k);
    if st.protocol.item_read = Protocol.Short then release_short ?scope t st;
    Progress

(* Under next-key locking, an insert or delete of [k] also takes a short
   Write lock on the next present key after [k] (or the virtual infinity
   key): splitting or merging a gap conflicts with any scan whose
   next-key guard covers that gap. *)
let acquire_gap_guard t st k ~before ~after =
  let presence_changes =
    match (before, after) with
    | None, Some _ | Some _, None -> true
    | _ -> false
  in
  if st.protocol.phantom_guard <> Protocol.Next_key_locks || not presence_changes
  then Lock_table.Granted
  else
    let gap_key =
      Option.value ~default:infinity_key
        (Store.next_key_geq t.store (k ^ "\x00"))
    in
    Lock_table.acquire t.locks ~owner:st.tid ~tag:Lock_table.Short
      (Lock_table.Write_item { k = gap_key; before = None; after = None })

let do_write ?scope t st k ~after ~kind ~cursor =
  if st.read_only then
    invalid_arg "Lock_engine: read-only transactions cannot write";
  let before = Store.get t.store k in
  match acquire_gap_guard t st k ~before ~after with
  | Lock_table.Conflict holders -> Blocked holders
  | Lock_table.Granted ->
  match
    acquire t st st.protocol.item_write (Lock_table.Write_item { k; before; after })
  with
  | Lock_table.Conflict holders -> Blocked holders
  | Lock_table.Granted ->
    Wal.append t.wal (Wal.Update { t = st.tid; k; before; after });
    st.undo <- (k, before) :: st.undo;
    (match after with
    | Some v -> Store.put t.store k v
    | None -> Store.delete t.store k);
    let preds = affected_predicates t k ~before ~after in
    emit t (Action.write ?value:after ~kind ~preds ~cursor st.tid k);
    if st.protocol.item_write = Protocol.Short then release_short ?scope t st;
    Progress

(* The scan-side phantom guard. With predicate locks, one Read lock on
   the predicate; with next-key locks (and a range predicate), Read locks
   on every matched row plus the next key at or beyond the range's upper
   bound, which guards the gaps a phantom insert would have to split.
   Non-range predicates fall back to predicate locks. *)
let acquire_scan_guard t st p rows =
  match
    (st.protocol.phantom_guard, Predicate.range_bounds p, st.protocol.pred_read)
  with
  | _, _, Protocol.No_lock -> Lock_table.Granted
  | Protocol.Next_key_locks, Some (_, hi), duration -> (
    let tag =
      match duration with
      | Protocol.Short -> Lock_table.Short
      | Protocol.Long | Protocol.No_lock -> Lock_table.Long
    in
    let guard_key =
      match hi with
      | Some hi ->
        Option.value ~default:infinity_key (Store.next_key_geq t.store hi)
      | None -> infinity_key
    in
    let targets = List.map fst rows @ [ guard_key ] in
    let rec lock_all = function
      | [] -> Lock_table.Granted
      | k :: rest -> (
        match
          Lock_table.acquire t.locks ~owner:st.tid ~tag (Lock_table.Read_item k)
        with
        | Lock_table.Granted -> lock_all rest
        | Lock_table.Conflict _ as c -> c)
    in
    lock_all targets)
  | Protocol.Next_key_locks, None, duration | Protocol.Predicate_locks, _, duration
    ->
    acquire t st duration (Lock_table.Read_pred p)

let do_scan t st p =
  if st.read_only then snapshot_scan t st p
  else
  let rows = Store.scan t.store p in
  match acquire_scan_guard t st p rows with
  | Lock_table.Conflict holders -> Blocked holders
  | Lock_table.Granted ->
    let rows = Store.scan t.store p in
    st.env <- Program.observe_scan st.env (Predicate.name p) rows;
    (* Only configured predicates are annotated in the trace, so scenario
       classification is driven by the workload's declared predicates. *)
    if List.exists (fun q -> Predicate.name q = Predicate.name p) t.predicates
    then emit t (Action.pred_read ~keys:(List.map fst rows) st.tid (Predicate.name p));
    if st.protocol.pred_read = Protocol.Short then release_short t st;
    Progress

let do_open_cursor t st name ~for_update p =
  let rows0 = Store.scan t.store p in
  match acquire_scan_guard t st p rows0 with
  | Lock_table.Conflict holders -> Blocked holders
  | Lock_table.Granted ->
    let rows = Store.scan t.store p in
    Hashtbl.replace st.cursors name
      { remaining = rows; current = None; for_update };
    st.env <- Program.observe_scan st.env (Predicate.name p) rows;
    if List.exists (fun q -> Predicate.name q = Predicate.name p) t.predicates
    then emit t (Action.pred_read ~keys:(List.map fst rows) st.tid (Predicate.name p));
    if st.protocol.pred_read = Protocol.Short then release_short t st;
    Progress

let do_fetch ?scope t st name =
  match Hashtbl.find_opt st.cursors name with
  | None -> invalid_arg "Lock_engine: fetch without an open cursor"
  | Some c -> (
    match c.remaining with
    | [] ->
      (* Moving past the end releases the hold on the previous row. *)
      if st.protocol.cursor_hold then
        Lock_table.release ?scope t.locks ~owner:st.tid
          ~tag:(Lock_table.Cursor name);
      c.current <- None;
      Progress
    | (k, _stale) :: rest ->
      (* The row is re-read from the store at fetch time; the value seen at
         open-cursor time may be stale at weak levels. A for-update fetch
         takes a long U lock when the engine runs with update locks. *)
      let u_mode = t.update_locks && c.for_update in
      let tag =
        if u_mode then Some Lock_table.Long
        else if st.protocol.cursor_hold then Some (Lock_table.Cursor name)
        else duration_tag st.protocol.item_read
      in
      let verdict =
        match tag with
        | None -> Lock_table.Granted
        | Some tag ->
          (* Cursor Stability releases the previous row's lock when the
             cursor moves; done before acquiring the next row's lock. The
             footprint (and so [scope]) covers the previous row's bucket. *)
          if st.protocol.cursor_hold && not u_mode then
            Lock_table.release ?scope t.locks ~owner:st.tid
              ~tag:(Lock_table.Cursor name);
          Lock_table.acquire t.locks ~owner:st.tid ~tag
            (if u_mode then Lock_table.Update_item k else Lock_table.Read_item k)
      in
      match verdict with
      | Lock_table.Conflict holders -> Blocked holders
      | Lock_table.Granted ->
        let v = Store.get t.store k in
        c.remaining <- rest;
        c.current <- (match v with Some v -> Some (k, v) | None -> None);
        st.env <- Program.observe_read st.env k v;
        emit t (Action.read ?value:v ~cursor:true st.tid k);
        if (not st.protocol.cursor_hold) && st.protocol.item_read = Protocol.Short
        then release_short ?scope t st;
        Progress)

let do_cursor_write t st name expr =
  match Hashtbl.find_opt st.cursors name with
  | None | Some { current = None; _ } ->
    invalid_arg "Lock_engine: cursor write without a current row"
  | Some { current = Some (k, _); _ } ->
    let after = Some (expr st.env) in
    (* Write locks on the updated row are always long (Table 2). *)
    let before = Store.get t.store k in
    (match
       Lock_table.acquire t.locks ~owner:st.tid ~tag:Lock_table.Long
         (Lock_table.Write_item { k; before; after })
     with
    | Lock_table.Conflict holders -> Blocked holders
    | Lock_table.Granted ->
      Wal.append t.wal (Wal.Update { t = st.tid; k; before; after });
      st.undo <- (k, before) :: st.undo;
      (match after with Some v -> Store.put t.store k v | None -> ());
      let preds = affected_predicates t k ~before ~after in
      emit t (Action.write ?value:after ~kind:Action.Update ~preds ~cursor:true st.tid k);
      Progress)

let finish t st =
  Lock_table.release_all t.locks ~owner:st.tid;
  Hashtbl.reset st.cursors

(* The distinct keys a transaction wrote, with their current (commit-time)
   values — its after-image set, installed as committed versions so
   read-only snapshots can see past states. *)
let write_set t st =
  List.fold_left
    (fun acc (k, _) ->
      if List.mem_assoc k acc then acc else (k, Store.get t.store k) :: acc)
    [] st.undo

let rollback t st reason =
  (* Undo by restoring before-images, newest first, logging each restore
     as a compensation update so crash recovery can replay it. *)
  List.iter
    (fun (k, before) ->
      Wal.append t.wal
        (Wal.Update { t = st.tid; k; before = Store.get t.store k; after = before });
      Store.restore t.store k before)
    st.undo;
  st.undo <- [];
  Wal.append t.wal (Wal.Abort st.tid);
  st.status <- Aborted reason;
  finish t st;
  emit t (Action.abort st.tid)

let do_commit t st =
  match t.tear_commit with
  | Some tear when tear st.tid ->
    (* The injected crash strikes as the Commit record is logged: the
       record never became durable, so the transaction never committed.
       Roll back with compensation — the same before-image undo a
       recovery manager would run — and let the runtime retry the
       attempt under a fresh tid. *)
    rollback t st Fault_injected;
    Progress
  | _ ->
  Wal.append t.wal (Wal.Commit st.tid);
  (match write_set t st with
  | [] -> ()
  | writes ->
    (* Atomic w.r.t. a beginner reading its snapshot timestamp: the bump
       and the install publish together or not at all. *)
    Mutex.lock t.reg_m;
    t.commit_ts <- t.commit_ts + 1;
    Version_store.install t.vstore ~writer:st.tid ~commit_ts:t.commit_ts writes;
    Mutex.unlock t.reg_m);
  st.status <- Committed;
  finish t st;
  emit t (Action.commit st.tid);
  (* Periodic WAL checkpoint. A commit step's footprint is [All], so every
     stripe is held here: the store image is consistent and no undo list
     is mid-mutation. Still-active transactions are carried with their
     undo journals so recovery can roll their pre-checkpoint writes out of
     the image. *)
  if t.checkpoint_every > 0 then begin
    t.commits_since_ckpt <- t.commits_since_ckpt + 1;
    if t.commits_since_ckpt >= t.checkpoint_every then begin
      t.commits_since_ckpt <- 0;
      let image = Store.to_list t.store in
      Mutex.lock t.reg_m;
      let slots = Atomic.get t.slots in
      let active = ref [] in
      let horizon = ref t.commit_ts in
      Array.iter
        (function
          | Some st when st.status = Active ->
            active := (st.tid, st.undo) :: !active;
            if st.snapshot_ts < !horizon then horizon := st.snapshot_ts
          | _ -> ())
        slots;
      (* Checkpoint cadence is also the version-store GC cadence: no
         live snapshot reads below the oldest active snapshot_ts, so
         versions visible only there are unreachable. Without this the
         store grows by one version per committed write forever. *)
      ignore (Version_store.prune t.vstore ~horizon:!horizon : int);
      Mutex.unlock t.reg_m;
      Wal.checkpoint t.wal ~image ~active:!active
    end
  end;
  Progress

let do_abort t st reason =
  rollback t st reason;
  Progress

(* Abort initiated from outside the program — deadlock victim. A tid the
   engine no longer knows (finished and forgotten) already reached a
   terminal status, so the abort is a no-op, same as Committed/Aborted. *)
let abort_txn t tid ~reason =
  match find_state t tid with
  | Some st when st.status = Active -> rollback t st reason
  | Some _ | None -> ()

(* Release a finished transaction's slot. Without this the ring would
   keep every txn_state (env, undo tail, cursor table) and grow to span
   the whole run — the dominant resident cost of a 10^6-txn out-of-core
   run. Only terminal transactions are dropped; the guard makes a racing
   forget of a tid that was never begun (or is somehow still active)
   harmless. [reg_m] orders the write against the ring growth in
   [begin_txn]. *)
let forget t tid =
  Mutex.lock t.reg_m;
  let a = Atomic.get t.slots in
  (match a.(slot a tid) with
  | Some st when st.tid = tid && st.status <> Active -> a.(slot a tid) <- None
  | _ -> ());
  Mutex.unlock t.reg_m

(* Which shards (store shards, lock buckets, stripe mutexes) a step of
   [op] touches. [All] is the conservative answer — the pool then holds
   every stripe, which is exactly the coarse latch. [Keys] names the data
   keys, plus whether the step reaches the predicate bucket (writers must
   see predicate readers — the phantom rule).

   The analysis runs on the owning worker before the step, reading only
   owner-local state (protocol, cursors), and is conservative:
   - next-key locking takes gap guards on *successor* keys found by
     cross-shard queries, so those engines always execute under [All];
   - read-only transactions read the shared version store, mutated by
     committers, so they too run under [All] (their reads are lock-free
     in the 2PL sense, not in the memory sense);
   - scans, cursor opens, commits and aborts touch every shard.

   Item reads and writes additionally *read* the predicate bucket during
   conflict checks without it being in their footprint when [pred=false]:
   that is safe because every predicate-bucket mutation happens under
   [All], which excludes any concurrent step. *)
type footprint = All | Keys of { keys : key list; pred : bool }

let footprint t tid (op : Program.op) =
  if t.next_key_locking then All
  else
    match find_state t tid with
    | None -> All
    | Some st -> (
      if st.read_only then All
      else
        match op with
        | Program.Read k -> Keys { keys = [ k ]; pred = false }
        | Program.Write (k, _) | Program.Insert (k, _) | Program.Delete k ->
          Keys { keys = [ k ]; pred = true }
        | Program.Scan _ | Program.Open_cursor _ -> All
        | Program.Fetch c -> (
          match Hashtbl.find_opt st.cursors c with
          | None -> All
          | Some cur ->
            (* The previous row (its cursor lock is released) and the row
               the fetch moves to. *)
            let prev = match cur.current with Some (k, _) -> [ k ] | None -> [] in
            let next = match cur.remaining with (k, _) :: _ -> [ k ] | [] -> [] in
            Keys { keys = prev @ next; pred = false })
        | Program.Cursor_write (c, _) -> (
          match Hashtbl.find_opt st.cursors c with
          | Some { current = Some (k, _); _ } -> Keys { keys = [ k ]; pred = true }
          | _ -> All)
        | Program.Close_cursor c -> (
          match Hashtbl.find_opt st.cursors c with
          | Some { current = Some (k, _); _ } -> Keys { keys = [ k ]; pred = false }
          | _ -> Keys { keys = []; pred = false })
        | Program.Commit | Program.Abort -> All)

(* The lock-bucket release scope matching a footprint: [None] means every
   bucket (legal only because [All] steps hold every stripe). *)
let scope_of_footprint t = function
  | All -> None
  | Keys { keys; pred } ->
    let buckets =
      List.sort_uniq compare (List.map (Lock_table.bucket_of_key t.locks) keys)
    in
    Some (if pred then buckets @ [ Lock_table.pred_bucket t.locks ] else buckets)

let step t tid (op : Program.op) =
  let st = state t tid in
  match st.status with
  | Committed | Aborted _ -> Finished
  | Active -> (
    let scope = scope_of_footprint t (footprint t tid op) in
    match op with
    | Program.Read k -> do_read ?scope t st k
    | Program.Write (k, expr) ->
      do_write ?scope t st k ~after:(Some (expr st.env)) ~kind:Action.Update
        ~cursor:false
    | Program.Insert (k, expr) ->
      do_write ?scope t st k ~after:(Some (expr st.env)) ~kind:Action.Insert
        ~cursor:false
    | Program.Delete k ->
      do_write ?scope t st k ~after:None ~kind:Action.Delete ~cursor:false
    | Program.Scan p -> do_scan t st p
    | Program.Open_cursor { cursor; pred; for_update } ->
      do_open_cursor t st cursor ~for_update pred
    | Program.Fetch c -> do_fetch ?scope t st c
    | Program.Cursor_write (c, expr) -> do_cursor_write t st c expr
    | Program.Close_cursor c ->
      if st.protocol.cursor_hold then
        Lock_table.release ?scope t.locks ~owner:st.tid ~tag:(Lock_table.Cursor c);
      Hashtbl.remove st.cursors c;
      Progress
    | Program.Commit -> do_commit t st
    | Program.Abort -> do_abort t st User_abort)

let stripes t = Lock_table.stripes t.locks
let final_state t = Store.to_list t.store
let wal t = t.wal

(* Group-commit durability point: called by the runtime after the commit
   step returns and its stripes are released, so concurrent committers
   batch into one fsync instead of serialising it inside the critical
   section. *)
let wal_sync t = Wal.sync t.wal
let store t = t.store
let lock_events t = Lock_table.events t.locks
let lock_stats t = Lock_table.stats t.locks
let set_lock_hook t f = Lock_table.set_hook t.locks f
let set_tear_hook t f = t.tear_commit <- Some f
let set_trace_hook t f = t.trace_hook <- Some f
