(* A server-side session: the per-client state object carrying the
   declared isolation level and the open-transaction handle, pumped by
   the scheduler one request at a time.

   The session is the bridge between the wire protocol and the pool's
   parked-transaction interface ({!Runtime.Pool.exec_step}): each
   in-transaction request becomes one engine operation. A step that
   blocks does not sleep the worker — the session keeps the operation as
   [pending] and parks, untimed. Each transaction registers a wake at
   BEGIN that kicks the session's task; the pool fires it when a
   transaction this one waits on terminates, or when this one becomes a
   deadlock or certifier victim, and the resumed pump retries the
   pending operation. Everything the batch pool keeps on a worker's
   stack — attempt numbers, step sequence (fault-plan coordinates),
   accumulated wait time — lives in the session record instead.

   A session is only ever pumped by one worker at a time (scheduler
   invariant), so its mutable state needs no lock; only the [inbox] is
   shared with the connection's reader thread, under [inbox_m]. *)

module Pool = Runtime.Pool
module Level = Isolation.Level
module Engine = Core.Engine
module Program = Core.Program

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The open transaction, when there is one. *)
type txn = {
  tid : int;
  name : string;
  level : Level.t;      (* level pinned at BEGIN (SET LEVEL mid-txn waits) *)
  attempt : int;
  start_ns : int;
  mutable seq : int;     (* step-consultation counter (fault coordinates) *)
  mutable wait_ns : int; (* parked time charged to this transaction *)
}

(* An operation that blocked and parks for retry: the request id to
   answer, the engine op to re-step, and the response builder to run on
   success. *)
type pending = {
  preq : int;
  pop : Program.op;
  respond : unit -> Protocol.response;
  mutable tries : int;
  mutable parked_at : int; (* ns stamp when the session parked *)
}

type t = {
  sid : int;  (* wire session id, scoped to the connection *)
  gid : int;  (* global session index: the journal's job id *)
  conn : int;
  exec : Pool.exec;
  draining : bool Atomic.t;
  lookup_pred : Protocol.pred -> (Storage.Predicate.t, string) result;
  send : req:int -> Protocol.response -> unit;
  emit : tid:int -> Trace.Event.kind -> unit;
  on_close : t -> unit; (* deregister from the connection's table *)
  kick : Scheduler.task -> unit;
  inbox_m : Mutex.t;
  inbox : (int * Protocol.request) Queue.t;
  mutable level : Level.t;
  mutable txn : txn option;
  mutable pending : pending option;
  mutable txns : int;   (* transactions completed (either way) *)
  mutable closed : bool;
  mutable task : Scheduler.task option; (* backpatched after creation *)
}

let create ~sid ~gid ~conn ~exec ~draining ~lookup_pred ~send ~emit ~on_close
    ~kick ~level =
  {
    sid;
    gid;
    conn;
    exec;
    draining;
    lookup_pred;
    send;
    emit;
    on_close;
    kick;
    inbox_m = Mutex.create ();
    inbox = Queue.create ();
    level;
    txn = None;
    pending = None;
    txns = 0;
    closed = false;
    task = None;
  }

let sid t = t.sid
let gid t = t.gid
let conn t = t.conn
let txns t = t.txns
let task t = Option.get t.task
let set_task t task = t.task <- Some task

(* Reader-thread side: queue a request. Returns [false] when the session
   is closed (the caller answers with an error itself). *)
let offer t ~req request =
  Mutex.lock t.inbox_m;
  let accepted = not t.closed in
  if accepted then Queue.push (req, request) t.inbox;
  Mutex.unlock t.inbox_m;
  accepted

let pop_inbox t =
  Mutex.lock t.inbox_m;
  let r = Queue.take_opt t.inbox in
  Mutex.unlock t.inbox_m;
  r

(* {2 Transaction bookkeeping} *)

let finish_txn t ~worker (txn : txn) =
  t.txn <- None;
  t.pending <- None;
  t.txns <- t.txns + 1;
  fst
    (Pool.exec_finish t.exec ~worker ~tid:txn.tid ~job:t.gid ~name:txn.name
       ~level:txn.level ~attempt:txn.attempt ~start_ns:txn.start_ns
       ~wait_ns:txn.wait_ns)

let outcome_response = function
  | Runtime.Recorder.Committed -> Protocol.Committed
  | Runtime.Recorder.Aborted reason ->
    Protocol.Aborted (Runtime.Metrics.abort_reason_slug reason)

(* {2 Stepping one engine operation}

   Outcome: [`Done] (responded — continue with the inbox), [`Park]
   (blocked; the pending record holds the retry) or [`Yield] (blocked
   with nothing to wake it; retry after a lap of the ready queue). *)

let step_pending t ~worker (txn : txn) (p : pending) =
  let seq = txn.seq in
  txn.seq <- seq + 1;
  match
    Pool.exec_step ~level:txn.level ~tries:p.tries t.exec ~worker
      ~tid:txn.tid ~seq ~start_ns:txn.start_ns p.pop
  with
  | Pool.Session_progress ->
    t.pending <- None;
    (* A Commit/Abort op progresses into a terminal state; anything else
       leaves the transaction open. *)
    (match p.pop with
    | Program.Commit | Program.Abort ->
      t.send ~req:p.preq (outcome_response (finish_txn t ~worker txn))
    | _ -> t.send ~req:p.preq (p.respond ()));
    `Done
  | Pool.Session_finished | Pool.Session_aborted _ ->
    (* Terminated out from under us (deadlock victim, certifier doom,
       deadline, injected fault, starvation valve): the attempt is over;
       tell the client why so it can retry. *)
    t.pending <- None;
    t.send ~req:p.preq (outcome_response (finish_txn t ~worker txn));
    `Done
  | Pool.Session_retry ->
    p.tries <- p.tries + 1;
    `Yield
  | Pool.Session_blocked _ ->
    p.tries <- p.tries + 1;
    p.parked_at <- now_ns ();
    t.emit ~tid:txn.tid (Trace.Event.Session_park { session = t.gid });
    `Park

(* {2 Request dispatch} *)

let bad_state t ~req msg =
  t.send ~req (Protocol.Error { code = Protocol.err_bad_state; msg })

let handle t ~worker ~req (request : Protocol.request) =
  match (request, t.txn) with
  | Protocol.Open, _ ->
    (* Open created the session already; a second Open is a protocol
       misuse but harmless. *)
    bad_state t ~req "session already open";
    `Done
  | Protocol.Close, _ ->
    (match t.txn with
    | Some txn ->
      Pool.exec_abort t.exec ~tid:txn.tid;
      ignore (finish_txn t ~worker txn)
    | None -> ());
    Mutex.lock t.inbox_m;
    t.closed <- true;
    Queue.clear t.inbox;
    Mutex.unlock t.inbox_m;
    t.send ~req Protocol.Ok_resp;
    t.emit ~tid:0 (Trace.Event.Session_close { session = t.gid; txns = t.txns });
    t.on_close t;
    `Done
  | Protocol.Set_level _, Some _ ->
    bad_state t ~req "SET LEVEL inside a transaction";
    `Done
  | Protocol.Set_level name, None ->
    (match Level.of_string name with
    | None ->
      t.send ~req
        (Protocol.Error
           { code = Protocol.err_unknown; msg = "unknown level: " ^ name })
    | Some l ->
      (* Any known level is accepted as the session's *declared* level;
         a level from another engine family executes at its in-family
         strengthening ({!Isolation.Lattice.strengthen}, computed at
         BEGIN) while the certifier's mixed criterion and the journal
         still see what the client asked for. *)
      t.level <- l;
      t.send ~req Protocol.Ok_resp);
    `Done
  | Protocol.Begin _, Some _ ->
    bad_state t ~req "transaction already open";
    `Done
  | Protocol.Begin { read_only; attempt; name }, None ->
    if Atomic.get t.draining then begin
      t.send ~req
        (Protocol.Error { code = Protocol.err_draining; msg = "server draining" });
      `Done
    end
    else begin
      let tid = Pool.exec_fresh_tid t.exec in
      let attempt = max 1 attempt in
      if attempt > 1 then Pool.exec_note_retry t.exec ~wall_ns:0;
      (* Execute at the declared level's in-family strengthening (the
         identity when the family already matches); [declared] is what
         the mixed criterion judges and the journal attributes. *)
      let exec_level =
        Isolation.Lattice.strengthen t.level (Pool.exec_family t.exec)
      in
      Pool.exec_begin ~declared:t.level
        ~wake:(fun () -> t.kick (task t))
        t.exec ~worker ~tid ~job:t.gid ~name ~attempt ~level:exec_level
        ~read_only;
      t.txn <-
        Some
          {
            tid;
            name;
            level = t.level;
            attempt;
            start_ns = now_ns ();
            seq = 0;
            wait_ns = 0;
          };
      t.send ~req Protocol.Ok_resp;
      `Done
    end
  | Protocol.Stats, _ ->
    (* the front-end answers STATS on sid 0 before dispatch; one aimed
       at a live session is a misuse, not a crash *)
    bad_state t ~req "STATS is an admin request; send it with sid 0";
    `Done
  | ( ( Protocol.Read _ | Protocol.Write _ | Protocol.Insert _
      | Protocol.Delete _ | Protocol.Predicate _ | Protocol.Commit
      | Protocol.Abort ),
      None ) ->
    bad_state t ~req "no open transaction";
    `Done
  | op_req, Some txn ->
    let pend pop respond =
      let p = { preq = req; pop; respond; tries = 0; parked_at = 0 } in
      t.pending <- Some p;
      step_pending t ~worker txn p
    in
    let exec = t.exec and tid = txn.tid in
    (match op_req with
    | Protocol.Read k ->
      pend (Program.Read k) (fun () ->
          Protocol.Value (Program.read_result (Pool.exec_env exec ~tid) k))
    | Protocol.Write (k, v) ->
      pend (Program.Write (k, Program.const v)) (fun () -> Protocol.Ok_resp)
    | Protocol.Insert (k, v) ->
      pend (Program.Insert (k, Program.const v)) (fun () -> Protocol.Ok_resp)
    | Protocol.Delete k ->
      pend (Program.Delete k) (fun () -> Protocol.Ok_resp)
    | Protocol.Predicate wire_pred -> (
      match t.lookup_pred wire_pred with
      | Result.Error msg ->
        t.send ~req (Protocol.Error { code = Protocol.err_unknown; msg });
        `Done
      | Result.Ok pred ->
        pend (Program.Scan pred) (fun () ->
            Protocol.Rows
              (Program.scan_rows (Pool.exec_env exec ~tid)
                 (Storage.Predicate.name pred))))
    | Protocol.Commit -> pend Program.Commit (fun () -> Protocol.Committed)
    | Protocol.Abort -> pend Program.Abort (fun () -> Protocol.Aborted "user_abort")
    | Protocol.Open | Protocol.Close | Protocol.Set_level _ | Protocol.Begin _
    | Protocol.Stats ->
      assert false)

(* {2 The pump} *)

let pump t ~worker : Scheduler.outcome =
  if t.closed then `Idle
  else begin
    (* Resume a parked pending operation first: charge the park time as
       lock wait, then retry it. A spurious wake just parks again. *)
    let resumed =
      match (t.pending, t.txn) with
      | Some p, Some txn when p.parked_at > 0 ->
        let slept = now_ns () - p.parked_at in
        p.parked_at <- 0;
        txn.wait_ns <- txn.wait_ns + slept;
        Pool.exec_note_wait t.exec ~slept_ns:slept;
        t.emit ~tid:txn.tid (Trace.Event.Session_resume { session = t.gid });
        Some (step_pending t ~worker txn p)
      | Some p, Some txn -> Some (step_pending t ~worker txn p)
      | _ -> None
    in
    match resumed with
    | Some ((`Park | `Yield) as o) -> o
    | Some `Done | None -> (
      (* Serve queued requests until one blocks or the inbox drains.
         A bounded budget per pump keeps one busy session from
         monopolizing its worker — [`Yield] requeues it fairly. *)
      let budget = ref 32 in
      let rec drain () =
        if t.closed then `Idle
        else if !budget = 0 then `Yield
        else begin
          decr budget;
          match pop_inbox t with
          | None -> `Idle
          | Some (req, request) -> (
            match handle t ~worker ~req request with
            | `Done -> drain ()
            | (`Park | `Yield) as o -> o)
        end
      in
      drain ())
  end
