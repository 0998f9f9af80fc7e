(* The multiversion engine: Snapshot Isolation (§4.2) and Oracle Read
   Consistency (§4.3) over a version store.

   Snapshot Isolation: a transaction reads from the snapshot of committed
   data as of its Start-Timestamp (plus its own writes), never blocks on
   reads, buffers its writes privately, and commits only if no concurrent
   transaction committed a write of an item it also wrote —
   First-Committer-Wins. The First-Updater-Wins ablation (how PostgreSQL
   implements SI) detects the same conflicts at write time: a write aborts
   immediately if a conflicting write committed since the snapshot, and
   blocks behind a concurrent uncommitted writer.

   Oracle Read Consistency: every statement reads the committed state as
   of its own start (the start timestamp advances per statement); writes
   take long Write locks on rows — first-writer-wins — and cursors are
   updatable (fetch locks the row), which is what makes P4C impossible
   while plain lost updates (P4) remain possible. *)

module Action = History.Action
module Version_store = Storage.Version_store
module Predicate = Storage.Predicate
module Wal = Storage.Wal
module Lock_table = Locking.Lock_table

type txn = Action.txn
type key = Action.key
type value = Action.value

type mv_level = Snapshot_isolation | Read_consistency | Serializable_snapshot

type abort_reason =
  | User_abort
  | Deadlock_victim
  | First_committer_wins
  | First_updater_wins
  | Serialization_failure (* SSI commit-time read validation *)
  | Fault_injected        (* injected by a fault plan *)
  | Deadline_exceeded     (* transaction ran past its deadline *)
  | Certifier_abort       (* the online certifier doomed it: it closed a cycle *)

type status = Active | Committed | Aborted of abort_reason

type cursor = {
  mutable remaining : (key * value) list;
  mutable current : (key * value) option;
}

type cursor_state = {
  c : cursor;
  for_update : bool;
}

type txn_state = {
  tid : txn;
  level : mv_level;
  read_only : bool;
  mutable start_ts : Version_store.ts;
  mutable status : status;
  mutable env : Program.env;
  mutable writes : (key * value option) list; (* newest first; None deletes *)
  mutable read_keys : key list;
      (* items read; kept only at Serializable_snapshot, the one level
         whose commit validates reads ([read_validation_conflict]) *)
  mutable read_preds : Predicate.t list;      (* predicates read; likewise *)
  cursors : (string, cursor_state) Hashtbl.t;
}

type t = {
  vstore : Version_store.t;
  mutable now : Version_store.ts; (* last commit timestamp issued *)
  locks : Lock_table.t;           (* write locks, Read Consistency only *)
  wal : Wal.t;                    (* versioned records: the MV crash model *)
  checkpoint_every : int;         (* commits between Vcheckpoints; 0 = never *)
  mutable commits_since_ckpt : int;
  mutable commits_since_vacuum : int;
  retain_trace : bool;   (* keep the action list (out-of-core runs drop it) *)
  mutable trace : Action.t list;  (* newest first *)
  mutable trace_len : int;        (* = List.length trace, O(1) for tracing *)
  txns : (txn, txn_state) Hashtbl.t;
  predicates : Predicate.t list;
  first_updater_wins : bool;      (* SI write-conflict timing ablation *)
  (* Trace observation hook, called with (position, action) on each
     append. Steps of this engine run single-threaded under every stripe
     of the pool, so the plain emit is already serialised. *)
  mutable trace_hook : (int -> Action.t -> unit) option;
  (* Torn-commit fault hook, consulted as the Vcommit stamp would be
     logged: the Vinstalls made it to the log, the stamp did not. *)
  mutable tear_commit : (txn -> bool) option;
  (* Prune observation hook, called with the (key, writer) pairs each
     vacuum buried — the certifier retires its version-order entries on
     exactly these. *)
  mutable prune_hook : ((key * txn) list -> unit) option;
}

type step_outcome = Progress | Blocked of txn list | Finished

let create ~initial ~predicates ?(first_updater_wins = false) ?wal_dir
    ?wal_segment_bytes ?(checkpoint_every = 0) ?(retain_trace = true) () =
  {
    vstore = Version_store.of_list initial;
    now = 0;
    locks = Lock_table.create ();
    wal = Wal.create ?dir:wal_dir ?segment_bytes:wal_segment_bytes ();
    checkpoint_every;
    commits_since_ckpt = 0;
    commits_since_vacuum = 0;
    retain_trace;
    trace = [];
    trace_len = 0;
    txns = Hashtbl.create 8;
    predicates;
    first_updater_wins;
    trace_hook = None;
    tear_commit = None;
    prune_hook = None;
  }

let emit t action =
  if t.retain_trace then t.trace <- action :: t.trace;
  t.trace_len <- t.trace_len + 1;
  match t.trace_hook with
  | Some f -> f (t.trace_len - 1) action
  | None -> ()

let trace t = List.rev t.trace
let trace_len t = t.trace_len
let set_lock_hook t f = Lock_table.set_hook t.locks f
let set_trace_hook t f = t.trace_hook <- Some f
let set_tear_hook t f = t.tear_commit <- Some f
let set_prune_hook t f = t.prune_hook <- Some f
let wal t = t.wal
let wal_sync t = Wal.sync t.wal

let state t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some st -> st
  | None -> invalid_arg (Fmt.str "Mv_engine: unknown transaction %d" tid)

let begin_txn ?(read_only = false) t tid ~level =
  Wal.append t.wal (Wal.Begin tid);
  Hashtbl.replace t.txns tid
    { tid; level; read_only; start_ts = t.now; status = Active;
      env = Program.empty_env; writes = []; read_keys = []; read_preds = [];
      cursors = Hashtbl.create 2 }

(* Time travel (§4.2): start a transaction with an old Start-Timestamp. *)
let begin_txn_at t tid ~level ~start_ts =
  begin_txn t tid ~level;
  (state t tid).start_ts <- start_ts

let is_read_only t tid = (state t tid).read_only

let status t tid = (state t tid).status
let env t tid = (state t tid).env

(* The timestamp a read by [st] uses: SI reads at the transaction's
   snapshot; Read Consistency advances the read timestamp each statement. *)
let read_ts t st =
  match st.level with
  | Snapshot_isolation | Serializable_snapshot -> st.start_ts
  | Read_consistency -> t.now

let own_write st k = List.assoc_opt k st.writes

(* Read through the transaction's own writes, then the snapshot. Returns
   the value and the version's writer (for the MV trace annotation). *)
let read_visible t st k =
  match own_write st k with
  | Some v -> (v, st.tid)
  | None ->
    let ts = read_ts t st in
    (match Version_store.version_at t.vstore ~ts k with
    | Some ver -> (ver.Version_store.value, ver.Version_store.writer)
    | None -> (None, 0))

(* The visible snapshot with the transaction's own writes applied — what
   its predicate scans see. *)
let visible_rows t st =
  let base = Version_store.snapshot_at t.vstore ~ts:(read_ts t st) in
  let without_overwritten =
    List.filter (fun (k, _) -> own_write st k = None) base
  in
  let own =
    List.filter_map
      (fun (k, v) -> match v with Some v -> Some (k, v) | None -> None)
      (List.rev st.writes)
  in
  (* Deduplicate own writes, keeping the newest per key. *)
  let own_latest =
    List.fold_left
      (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
      [] own
  in
  List.sort compare (without_overwritten @ own_latest)

let affected_predicates t k ~before ~after =
  List.filter_map
    (fun p ->
      if Predicate.affected_by_write p k ~before ~after then
        Some (Predicate.name p)
      else None)
    t.predicates

(* Read sets exist for [read_validation_conflict] alone, so the levels
   that never validate reads keep none: a SNAPSHOT audit would otherwise
   pay a scan of its read set on every read. *)
let record_read st k =
  if st.level = Serializable_snapshot && not (List.mem k st.read_keys) then
    st.read_keys <- k :: st.read_keys

let record_pred st p =
  if
    st.level = Serializable_snapshot
    && not
         (List.exists
            (fun q -> Predicate.name q = Predicate.name p)
            st.read_preds)
  then st.read_preds <- p :: st.read_preds

let do_read t st k =
  let v, writer = read_visible t st k in
  record_read st k;
  st.env <- Program.observe_read st.env k v;
  emit t (Action.read ~ver:writer ?value:v st.tid k);
  Progress

let drop_buffer st = st.writes <- []

let finish t st =
  Lock_table.release_all t.locks ~owner:st.tid;
  Hashtbl.reset st.cursors

let rollback t st reason =
  (* Nothing to compensate: the store never saw this transaction's writes
     (they were privately buffered) and any Vinstalls it logged carry no
     stamp — recovery discards them. The Abort record just closes the
     Begin so the transaction stops counting as a loser. *)
  drop_buffer st;
  Wal.append t.wal (Wal.Abort st.tid);
  st.status <- Aborted reason;
  finish t st;
  emit t (Action.abort st.tid)

(* Another active transaction holding an uncommitted write of [k]. *)
let concurrent_writer t st k =
  Hashtbl.fold
    (fun tid other acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if tid <> st.tid && other.status = Active && own_write other k <> None
        then Some tid
        else None)
    t.txns None

let do_write t st k ~after ~kind ~cursor_write =
  if st.read_only then
    invalid_arg "Mv_engine: read-only transactions cannot write";
  let before = fst (read_visible t st k) in
  let record () =
    st.writes <- (k, after) :: st.writes;
    let preds = affected_predicates t k ~before ~after in
    emit t
      (Action.write ~ver:st.tid ?value:after ~kind ~preds ~cursor:cursor_write
         st.tid k);
    Progress
  in
  match st.level with
  | Serializable_snapshot -> record ()
  | Snapshot_isolation ->
    if t.first_updater_wins then
      if Version_store.committed_after t.vstore ~ts:st.start_ts k then begin
        (* A conflicting write committed since our snapshot: abort now. *)
        rollback t st First_updater_wins;
        Progress
      end
      else begin
        match concurrent_writer t st k with
        | Some other -> Blocked [ other ]
        | None -> record ()
      end
    else record ()
  | Read_consistency -> (
    (* First-writer-wins: take a long Write lock on the row. *)
    let committed_before = Version_store.read_latest t.vstore k in
    match
      Lock_table.acquire t.locks ~owner:st.tid ~tag:Lock_table.Long
        (Lock_table.Write_item { k; before = committed_before; after })
    with
    | Lock_table.Conflict holders -> Blocked holders
    | Lock_table.Granted -> record ())

let do_scan t st p =
  let rows = List.filter (fun (k, v) -> p.Predicate.satisfies k v) (visible_rows t st) in
  record_pred st p;
  st.env <- Program.observe_scan st.env (Predicate.name p) rows;
  if List.exists (fun q -> Predicate.name q = Predicate.name p) t.predicates
  then emit t (Action.pred_read ~keys:(List.map fst rows) st.tid (Predicate.name p));
  Progress

let do_open_cursor t st name ~for_update p =
  let rows = List.filter (fun (k, v) -> p.Predicate.satisfies k v) (visible_rows t st) in
  record_pred st p;
  Hashtbl.replace st.cursors name
    { c = { remaining = rows; current = None }; for_update };
  st.env <- Program.observe_scan st.env (Predicate.name p) rows;
  if List.exists (fun q -> Predicate.name q = Predicate.name p) t.predicates
  then emit t (Action.pred_read ~keys:(List.map fst rows) st.tid (Predicate.name p));
  Progress

let do_fetch t st name =
  match Hashtbl.find_opt st.cursors name with
  | None -> invalid_arg "Mv_engine: fetch without an open cursor"
  | Some { c; for_update } -> (
    match c.remaining with
    | [] ->
      c.current <- None;
      Progress
    | (k, v) :: rest -> (
      let fetched () =
        c.remaining <- rest;
        c.current <- Some (k, v);
        record_read st k;
        st.env <- Program.observe_read st.env k (Some v);
        emit t (Action.read ~ver:st.tid ~value:v ~cursor:true st.tid k);
        Progress
      in
      match st.level with
      | Snapshot_isolation | Serializable_snapshot -> fetched ()
      | Read_consistency when not for_update -> fetched ()
      | Read_consistency -> (
        (* Updatable cursor: the fetch takes the row's Write lock, which is
           what makes P4C impossible under Read Consistency (§4.3). *)
        let committed_before = Version_store.read_latest t.vstore k in
        match
          Lock_table.acquire t.locks ~owner:st.tid ~tag:Lock_table.Long
            (Lock_table.Write_item
               { k; before = committed_before; after = Some v })
        with
        | Lock_table.Conflict holders -> Blocked holders
        | Lock_table.Granted -> fetched ())))

let do_cursor_write t st name expr =
  match Hashtbl.find_opt st.cursors name with
  | None | Some { c = { current = None; _ }; _ } ->
    invalid_arg "Mv_engine: cursor write without a current row"
  | Some { c = { current = Some (k, _); _ }; _ } ->
    let after = Some (expr st.env) in
    do_write t st k ~after ~kind:Action.Update ~cursor_write:true

(* First-Committer-Wins: commit fails if any item in the write set has a
   version committed after our Start-Timestamp (§4.2). *)
let fcw_conflict t st =
  List.exists
    (fun (k, _) -> Version_store.committed_after t.vstore ~ts:st.start_ts k)
    st.writes

(* Serializable SI read validation: the commit fails if any concurrent
   transaction committed a write of an item this transaction read, or a
   write affecting a predicate it evaluated. Together with
   First-Committer-Wins this serializes committed transactions in commit
   order (the conservative form of SSI: abort on any rw-antidependency to
   a committed concurrent transaction). *)
let read_validation_conflict t st =
  List.exists
    (fun k -> Version_store.committed_after t.vstore ~ts:st.start_ts k)
    st.read_keys
  || List.exists
       (fun p ->
         List.exists
           (fun (k, v) ->
             Predicate.affected_by_write p k
               ~before:(Version_store.read_at t.vstore ~ts:st.start_ts k)
               ~after:v.Version_store.value)
           (Version_store.versions_committed_after t.vstore ~ts:st.start_ts))
       st.read_preds

(* The oldest snapshot any active transaction can still read. *)
let oldest_active_snapshot t =
  Hashtbl.fold
    (fun _ st acc ->
      if st.status = Active then min acc st.start_ts else acc)
    t.txns t.now

(* Version garbage collection: discard versions no active or future
   snapshot can observe. The Watermark record makes the prune durable —
   recovery replays it, so the recovered store has buried exactly what
   the live store buried and no post-crash snapshot starts below the
   horizon — and the buried (key, writer) pairs feed the prune hook (the
   certifier retires its version-order entries on exactly these). *)
let vacuum_collect t =
  t.commits_since_vacuum <- 0;
  let horizon = oldest_active_snapshot t in
  let buried = Version_store.prune_collect t.vstore ~horizon in
  Wal.append t.wal (Wal.Watermark horizon);
  (match t.prune_hook with
  | Some f when buried <> [] -> f buried
  | _ -> ());
  (horizon, buried)

let vacuum t = List.length (snd (vacuum_collect t))

(* Version GC has its own commit cadence, independent of checkpoints: a
   run with checkpoints far apart (or off) would otherwise keep every
   version chain, and the certifier's version orders and reader tables
   with them, growing between them. *)
let vacuum_every = 1024

let maybe_vacuum t =
  t.commits_since_vacuum <- t.commits_since_vacuum + 1;
  if t.commits_since_vacuum >= vacuum_every then ignore (vacuum_collect t)

(* Periodic Vcheckpoint. A commit step runs under every stripe, so the
   transaction table and the version store are consistent here. A
   checkpoint vacuums first (restarting the GC cadence) so the image
   carries only reachable versions, then writes the chains at the head
   of a fresh segment and truncates the log behind them. Active
   transactions are carried by tid alone — their writes are privately
   buffered, never in the store, so there is no journal to carry. *)
let maybe_checkpoint t =
  if t.checkpoint_every > 0 then begin
    t.commits_since_ckpt <- t.commits_since_ckpt + 1;
    if t.commits_since_ckpt >= t.checkpoint_every then begin
      t.commits_since_ckpt <- 0;
      let watermark, _ = vacuum_collect t in
      let active =
        Hashtbl.fold
          (fun tid st acc -> if st.status = Active then tid :: acc else acc)
          t.txns []
      in
      Wal.checkpoint_record t.wal
        (Wal.Vcheckpoint
           {
             chains = Version_store.chains t.vstore;
             next_ts = t.now;
             watermark;
             active;
           })
    end
  end

let do_commit t st =
  match st.level with
  | Snapshot_isolation when (not t.first_updater_wins) && fcw_conflict t st ->
    rollback t st First_committer_wins;
    Progress
  | Serializable_snapshot when fcw_conflict t st ->
    rollback t st First_committer_wins;
    Progress
  | Serializable_snapshot when read_validation_conflict t st ->
    rollback t st Serialization_failure;
    Progress
  | Snapshot_isolation | Read_consistency | Serializable_snapshot -> (
    let latest_per_key =
      List.fold_left
        (fun acc (k, v) ->
          if List.mem_assoc k acc then acc else (k, v) :: acc)
        [] st.writes
    in
    (* WAL discipline for versions: the Vinstalls go to the log first,
       then the Vcommit stamp, and only then does the store install —
       so every crash image either has the stamp (redo installs the
       versions) or lacks it (the versions never became visible). *)
    List.iter
      (fun (k, value) ->
        Wal.append t.wal (Wal.Vinstall { t = st.tid; k; value }))
      latest_per_key;
    match t.tear_commit with
    | Some tear when tear st.tid ->
      (* The injected crash strikes as the Vcommit stamp is logged: the
         Vinstalls are on the log, the stamp is not — the versions never
         became visible and the transaction never committed. Roll back
         (the Abort record closes the Begin; a real crash here is
         exactly the torn-version-write recovery case) and let the
         runtime retry the attempt under a fresh tid. *)
      rollback t st Fault_injected;
      Progress
    | _ ->
      if latest_per_key <> [] then begin
        t.now <- t.now + 1;
        Wal.append t.wal (Wal.Vcommit { t = st.tid; ts = t.now });
        Version_store.install t.vstore ~writer:st.tid ~commit_ts:t.now
          latest_per_key
      end
      else
        (* Read-only commit: the stamp still closes the Begin, at the
           unadvanced clock. *)
        Wal.append t.wal (Wal.Vcommit { t = st.tid; ts = t.now });
      st.status <- Committed;
      finish t st;
      emit t (Action.commit st.tid);
      maybe_checkpoint t;
      maybe_vacuum t;
      Progress)

(* A tid the engine no longer knows (finished and forgotten) already
   reached a terminal status, so the abort is a no-op. *)
let abort_txn t tid ~reason =
  match Hashtbl.find_opt t.txns tid with
  | Some st when st.status = Active -> rollback t st reason
  | Some _ | None -> ()

let step t tid (op : Program.op) =
  let st = state t tid in
  match st.status with
  | Committed | Aborted _ -> Finished
  | Active -> (
    match op with
    | Program.Read k -> do_read t st k
    | Program.Write (k, expr) ->
      do_write t st k ~after:(Some (expr st.env)) ~kind:Action.Update
        ~cursor_write:false
    | Program.Insert (k, expr) ->
      do_write t st k ~after:(Some (expr st.env)) ~kind:Action.Insert
        ~cursor_write:false
    | Program.Delete k ->
      do_write t st k ~after:None ~kind:Action.Delete ~cursor_write:false
    | Program.Scan p -> do_scan t st p
    | Program.Open_cursor { cursor; pred; for_update } ->
      do_open_cursor t st cursor ~for_update pred
    | Program.Fetch c -> do_fetch t st c
    | Program.Cursor_write (c, expr) -> do_cursor_write t st c expr
    | Program.Close_cursor c ->
      Hashtbl.remove st.cursors c;
      Progress
    | Program.Commit -> do_commit t st
    | Program.Abort ->
      rollback t st User_abort;
      Progress)

let final_state t = Version_store.to_latest_list t.vstore
let version_store t = t.vstore
let now t = t.now

(* Drop a finished transaction's state. Tids are dense and never reused,
   so without this every txn_state stays resident for the whole run. The
   table is mutated by steps running under every stripe, so the pool
   routes this call through the same all-stripes exclusion. *)
let forget t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some st when st.status <> Active -> Hashtbl.remove t.txns tid
  | _ -> ()
