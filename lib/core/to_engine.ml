(* Strict timestamp-ordering (T/O) scheduler ([BHG] Chapter 4).

   The ANSI designers "sought a definition that would admit many
   different implementations, not just locking" (§2.2). This is the
   classic such implementation: no locks at all. Every transaction gets a
   startup timestamp; each item remembers the largest timestamp that read
   it (rts) and wrote it (wts), and operations that arrive "too late" —
   against an item already read or written by a younger transaction —
   abort instead of blocking:

     read  k by T:  abort if wts(k) > ts(T); wait while the latest write
                    of k is uncommitted (strictness — no dirty reads);
                    else read and raise rts(k).
     write k by T:  abort if rts(k) > ts(T) or wts(k) > ts(T); wait while
                    an uncommitted write of k is in place; else write in
                    place (before-image saved) and set wts(k).

   Waits only ever point from younger to older transactions, so no
   deadlock is possible; conflicts surface as Too_late aborts.

   Phantoms: scans read a virtual per-engine "membership" item, and any
   write that changes membership of a configured predicate (or any
   insert/delete) writes it. Phantom safety therefore requires declaring
   the predicates the workload scans, exactly as the trace annotation
   does; the configured predicates drive both. *)

module Action = History.Action
module Store = Storage.Store
module Predicate = Storage.Predicate
module Wal = Storage.Wal

type txn = Action.txn
type key = Action.key
type value = Action.value

type abort_reason =
  | User_abort
  | Deadlock_victim
  | Too_late
  | Fault_injected    (* injected by a fault plan *)
  | Deadline_exceeded (* transaction ran past its deadline *)
  | Certifier_abort   (* the online certifier doomed it: it closed a cycle *)

type status = Active | Committed | Aborted of abort_reason

type cursor = {
  mutable remaining : (key * value) list;
  mutable current : (key * value) option;
}

type txn_state = {
  tid : txn;
  ts : int;
  mutable status : status;
  mutable env : Program.env;
  mutable undo : (key * value option) list; (* before images, newest first *)
  mutable dirty : key list;                 (* keys with our uncommitted write *)
  cursors : (string, cursor) Hashtbl.t;
}

(* The virtual item guarding predicate membership. Its name cannot clash
   with real keys, which the program DSL builds from identifiers. *)
let membership_key = "\255<membership>"

type stamps = { mutable rts : int; mutable wts : int }

type t = {
  store : Store.t;
  stamps : (key, stamps) Hashtbl.t;
  writers : (key, txn) Hashtbl.t; (* uncommitted writer per key *)
  mutable clock : int;
  (* The T/O scheduler updates the store in place with before-image undo
     lists — exactly the lock engine's shape — so it logs the standard
     Begin/Update/Commit/Abort records and reuses the single-version
     recovery unchanged. Strictness (writes wait behind uncommitted
     writers) excludes P0, so before-image undo is sound. The virtual
     membership item only ever receives timestamps, never store writes,
     so it never reaches the log. *)
  wal : Wal.t;
  checkpoint_every : int;   (* commits between WAL checkpoints; 0 = never *)
  mutable commits_since_ckpt : int;
  retain_trace : bool;  (* keep the action list (out-of-core runs drop it) *)
  mutable trace : Action.t list; (* newest first *)
  mutable trace_len : int;       (* = List.length trace, O(1) for tracing *)
  txns : (txn, txn_state) Hashtbl.t;
  predicates : Predicate.t list;
  (* Trace observation hook; steps run single-threaded under every pool
     stripe, so the plain emit is already serialised. *)
  mutable trace_hook : (int -> Action.t -> unit) option;
  (* Torn-commit fault hook, consulted as the Commit record would be
     logged. *)
  mutable tear_commit : (txn -> bool) option;
}

type step_outcome = Progress | Blocked of txn list | Finished

let create ~initial ~predicates ?wal_dir ?wal_segment_bytes
    ?(checkpoint_every = 0) ?(retain_trace = true) () =
  {
    store = Store.of_list initial;
    stamps = Hashtbl.create 32;
    writers = Hashtbl.create 8;
    clock = 0;
    wal = Wal.create ?dir:wal_dir ?segment_bytes:wal_segment_bytes ();
    checkpoint_every;
    commits_since_ckpt = 0;
    retain_trace;
    trace = [];
    trace_len = 0;
    txns = Hashtbl.create 8;
    predicates;
    trace_hook = None;
    tear_commit = None;
  }

let emit t action =
  if t.retain_trace then t.trace <- action :: t.trace;
  t.trace_len <- t.trace_len + 1;
  match t.trace_hook with
  | Some f -> f (t.trace_len - 1) action
  | None -> ()

let trace t = List.rev t.trace
let trace_len t = t.trace_len
let set_trace_hook t f = t.trace_hook <- Some f
let set_tear_hook t f = t.tear_commit <- Some f
let wal t = t.wal
let wal_sync t = Wal.sync t.wal

let state t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some st -> st
  | None -> invalid_arg (Fmt.str "To_engine: unknown transaction %d" tid)

let begin_txn t tid =
  t.clock <- t.clock + 1;
  Wal.append t.wal (Wal.Begin tid);
  Hashtbl.replace t.txns tid
    { tid; ts = t.clock; status = Active; env = Program.empty_env; undo = [];
      dirty = []; cursors = Hashtbl.create 2 }

let status t tid = (state t tid).status
let env t tid = (state t tid).env

let stamps_of t k =
  match Hashtbl.find_opt t.stamps k with
  | Some s -> s
  | None ->
    let s = { rts = 0; wts = 0 } in
    Hashtbl.replace t.stamps k s;
    s

let uncommitted_writer t st k =
  match Hashtbl.find_opt t.writers k with
  | Some w when w <> st.tid -> Some w
  | _ -> None

let finish_cleanup t st =
  List.iter (fun k -> Hashtbl.remove t.writers k) st.dirty;
  st.dirty <- [];
  Hashtbl.reset st.cursors

let rollback t st reason =
  (* Undo by restoring before-images, newest first, logging each restore
     as a compensation update so crash recovery can replay it. *)
  List.iter
    (fun (k, before) ->
      Wal.append t.wal
        (Wal.Update
           { t = st.tid; k; before = Store.get t.store k; after = before });
      Store.restore t.store k before)
    st.undo;
  st.undo <- [];
  Wal.append t.wal (Wal.Abort st.tid);
  st.status <- Aborted reason;
  finish_cleanup t st;
  emit t (Action.abort st.tid)

(* A read of [k]: too late if a younger transaction already wrote it;
   waits behind an uncommitted writer (strictness). *)
let timestamped_read t st k ~cursor =
  let s = stamps_of t k in
  if s.wts > st.ts then begin
    rollback t st Too_late;
    Progress
  end
  else
    match uncommitted_writer t st k with
    | Some w -> Blocked [ w ]
    | None ->
      s.rts <- max s.rts st.ts;
      let v = Store.get t.store k in
      st.env <- Program.observe_read st.env k v;
      emit t (Action.read ?value:v ~cursor st.tid k);
      Progress

let affected_predicates t k ~before ~after =
  List.filter_map
    (fun p ->
      if Predicate.affected_by_write p k ~before ~after then
        Some (Predicate.name p)
      else None)
    t.predicates

(* A write of [k]: too late against younger readers or writers of [k] —
   or, when the write changes predicate membership, against younger
   scanners (via the membership item). *)
let timestamped_write t st k ~after ~kind ~cursor =
  let before = Store.get t.store k in
  let presence_changes =
    match (before, after) with None, Some _ | Some _, None -> true | _ -> false
  in
  let preds = affected_predicates t k ~before ~after in
  let guards_membership = presence_changes || preds <> [] in
  let s = stamps_of t k in
  let m = stamps_of t membership_key in
  if
    s.rts > st.ts || s.wts > st.ts
    || (guards_membership && (m.rts > st.ts || m.wts > st.ts))
  then begin
    rollback t st Too_late;
    Progress
  end
  else
    match
      match uncommitted_writer t st k with
      | Some w -> Some w
      | None ->
        if guards_membership then uncommitted_writer t st membership_key
        else None
    with
    | Some w -> Blocked [ w ]
    | None ->
      (* Log before the in-place store write (WAL discipline); the
         membership item gets only stamps below, never a store write, so
         the log sees real keys only. *)
      Wal.append t.wal (Wal.Update { t = st.tid; k; before; after });
      st.undo <- (k, before) :: st.undo;
      (match after with
      | Some v -> Store.put t.store k v
      | None -> Store.delete t.store k);
      s.wts <- max s.wts st.ts;
      if not (List.mem k st.dirty) then begin
        st.dirty <- k :: st.dirty;
        Hashtbl.replace t.writers k st.tid
      end;
      if guards_membership then begin
        m.wts <- max m.wts st.ts;
        if not (List.mem membership_key st.dirty) then begin
          st.dirty <- membership_key :: st.dirty;
          Hashtbl.replace t.writers membership_key st.tid
        end
      end;
      emit t (Action.write ?value:after ~kind ~preds ~cursor st.tid k);
      Progress

(* A scan: a timestamped read of the membership item plus reads of every
   matched row (their rts rise, so updates to them conflict). *)
let timestamped_scan t st p ~open_cursor =
  let m = stamps_of t membership_key in
  if m.wts > st.ts then begin
    rollback t st Too_late;
    Progress
  end
  else
    match uncommitted_writer t st membership_key with
    | Some w -> Blocked [ w ]
    | None -> (
      let rows = Store.scan t.store p in
      (* Rows with uncommitted writes force a wait (strict reads). *)
      let blockers =
        List.filter_map (fun (k, _) -> uncommitted_writer t st k) rows
        |> List.sort_uniq compare
      in
      match blockers with
      | _ :: _ -> Blocked blockers
      | [] ->
        if List.exists (fun (k, _) -> (stamps_of t k).wts > st.ts) rows then begin
          rollback t st Too_late;
          Progress
        end
        else begin
          m.rts <- max m.rts st.ts;
          List.iter (fun (k, _) -> (stamps_of t k).rts <- max (stamps_of t k).rts st.ts) rows;
          st.env <- Program.observe_scan st.env (Predicate.name p) rows;
          if
            List.exists
              (fun q -> Predicate.name q = Predicate.name p)
              t.predicates
          then
            emit t
              (Action.pred_read ~keys:(List.map fst rows) st.tid
                 (Predicate.name p));
          (match open_cursor with
          | Some name ->
            Hashtbl.replace st.cursors name { remaining = rows; current = None }
          | None -> ());
          Progress
        end)

let do_fetch t st name =
  match Hashtbl.find_opt st.cursors name with
  | None -> invalid_arg "To_engine: fetch without an open cursor"
  | Some c -> (
    match c.remaining with
    | [] ->
      c.current <- None;
      Progress
    | (k, _) :: rest -> (
      match timestamped_read t st k ~cursor:true with
      | Progress when st.status = Active ->
        c.remaining <- rest;
        c.current <-
          (match Store.get t.store k with
          | Some v -> Some (k, v)
          | None -> None);
        Progress
      | outcome -> outcome))

(* Periodic WAL checkpoint, mirroring the lock engine: a commit step
   runs under every stripe, so the store image is consistent and no undo
   list is mid-mutation. Still-active transactions are carried with
   their undo journals so recovery can roll their pre-checkpoint writes
   out of the image. *)
let maybe_checkpoint t =
  if t.checkpoint_every > 0 then begin
    t.commits_since_ckpt <- t.commits_since_ckpt + 1;
    if t.commits_since_ckpt >= t.checkpoint_every then begin
      t.commits_since_ckpt <- 0;
      let image = Store.to_list t.store in
      let active =
        Hashtbl.fold
          (fun tid st acc ->
            if st.status = Active then (tid, st.undo) :: acc else acc)
          t.txns []
      in
      Wal.checkpoint t.wal ~image ~active
    end
  end

let do_commit t st =
  match t.tear_commit with
  | Some tear when tear st.tid ->
    (* The injected crash strikes as the Commit record is logged: it
       never became durable, so the transaction never committed. Roll
       back with compensation and let the runtime retry the attempt
       under a fresh tid. *)
    rollback t st Fault_injected;
    Progress
  | _ ->
    Wal.append t.wal (Wal.Commit st.tid);
    st.undo <- [];
    st.status <- Committed;
    finish_cleanup t st;
    emit t (Action.commit st.tid);
    maybe_checkpoint t;
    Progress

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
    | Program.Read k -> timestamped_read t st k ~cursor:false
    | Program.Write (k, expr) ->
      timestamped_write t st k ~after:(Some (expr st.env)) ~kind:Action.Update
        ~cursor:false
    | Program.Insert (k, expr) ->
      timestamped_write t st k ~after:(Some (expr st.env)) ~kind:Action.Insert
        ~cursor:false
    | Program.Delete k ->
      timestamped_write t st k ~after:None ~kind:Action.Delete ~cursor:false
    | Program.Scan p -> timestamped_scan t st p ~open_cursor:None
    | Program.Open_cursor { cursor; pred; for_update = _ } ->
      timestamped_scan t st pred ~open_cursor:(Some cursor)
    | Program.Fetch c -> do_fetch t st c
    | Program.Cursor_write (c, expr) -> (
      match Hashtbl.find_opt st.cursors c with
      | None | Some { current = None; _ } ->
        invalid_arg "To_engine: cursor write without a current row"
      | Some { current = Some (k, _); _ } ->
        timestamped_write t st k
          ~after:(Some (expr st.env))
          ~kind:Action.Update ~cursor:true)
    | Program.Close_cursor c ->
      Hashtbl.remove st.cursors c;
      Progress
    | Program.Commit -> do_commit t st
    | Program.Abort ->
      rollback t st User_abort;
      Progress)

let final_state t =
  List.filter (fun (k, _) -> k <> membership_key) (Store.to_list t.store)

(* Drop a finished transaction's state. The table is mutated by steps
   running under every stripe, so the pool routes this call through the
   same all-stripes exclusion. *)
let forget t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some st when st.status <> Active -> Hashtbl.remove t.txns tid
  | _ -> ()

let store t = t.store
