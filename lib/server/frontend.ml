(* The socket front-end: accept loop, per-connection reader/writer
   threads, frame dispatch into sessions, and the graceful drain.

   Thread/domain layout: the scheduler owns N worker *domains* that pump
   sessions (all engine work happens there); each accepted connection
   gets two *systhreads* on the main domain — a reader that decodes
   frames and routes them into session inboxes, and a writer that drains
   a response queue into the socket. Sessions ≫ connections ≫ file
   descriptors: the sid field in every frame multiplexes many sessions
   over one socket, which also keeps the server clear of [Unix.select]'s
   FD_SETSIZE ceiling.

   Responses can be produced from two places — the reader thread
   (protocol errors, session management) and any scheduler worker (a
   session answering) — so the writer queue is the single serialization
   point per connection.

   Drain: flip [draining] (new BEGINs and OPENs bounce with
   [err_draining]), give in-flight transactions a grace period, then
   shut the sockets down; the readers see EOF and feed every session a
   synthetic CLOSE, which aborts open transactions through the normal
   pump path. Only then is the scheduler stopped and the execution
   context finalized, so the trace, journal and certifier verdict cover
   every session. *)

module Pool = Runtime.Pool
module Level = Isolation.Level

type config = {
  host : string;
  port : int;  (** 0 picks a free port (see [on_ready]) *)
  pool : Pool.config;
      (** engine / concurrency / trace / fault / certify settings;
          [pool.workers] sizes the scheduler's domain pool *)
  family : [ `Locking | `Mv | `Timestamp ];
  default_level : Level.t;  (** sessions start here until SET LEVEL *)
  drain_grace_s : float;
  duration_s : float option;  (** [None] serves until [stop] flips *)
  stop : bool Atomic.t;
  on_ready : int -> unit;  (** called with the bound port once listening *)
  telemetry_port : int option;
      (** also serve a Prometheus text exposition over HTTP here
          (0 picks a free port, see [telemetry_ready]) *)
  telemetry_ready : int -> unit;
}

let config ?(host = "127.0.0.1") ?(port = 7654) ?(default_level = Level.Read_committed)
    ?(drain_grace_s = 2.0) ?duration_s ?(stop = Atomic.make false)
    ?(on_ready = fun _ -> ()) ?telemetry_port ?(telemetry_ready = fun _ -> ())
    ~pool ~family () =
  { host; port; pool; family; default_level; drain_grace_s; duration_s; stop;
    on_ready; telemetry_port; telemetry_ready }

type stats = Telemetry.Report.server = {
  conns : int;
  sessions : int;
  frames : int;
  protocol_errors : int;
  disconnects : int;  (** injected connection severs (fault plan) *)
  draining : bool;
}

let pp_stats ppf s =
  Fmt.pf ppf "conns=%d sessions=%d frames=%d protocol_errors=%d disconnects=%d"
    s.conns s.sessions s.frames s.protocol_errors s.disconnects

(* {2 Connections} *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wm : Mutex.t;
  wcv : Condition.t;
  wq : Bytes.t Queue.t;
  mutable wclosed : bool;  (* no further responses; writer exits on empty *)
  sm : Mutex.t;
  sessions : (int, Session.t) Hashtbl.t;  (* sid -> session *)
  mutable frames_seen : int;
}

let conn_send c buf =
  Mutex.lock c.wm;
  if not c.wclosed then begin
    Queue.push buf c.wq;
    Condition.signal c.wcv
  end;
  Mutex.unlock c.wm

let conn_close_writes c =
  Mutex.lock c.wm;
  c.wclosed <- true;
  Condition.signal c.wcv;
  Mutex.unlock c.wm

let writer_loop c =
  let rec write_all buf pos len =
    if len > 0 then begin
      match Unix.write c.fd buf pos len with
      | n -> write_all buf (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all buf pos len
    end
  in
  let rec loop () =
    Mutex.lock c.wm;
    let rec next () =
      match Queue.take_opt c.wq with
      | Some buf -> Some buf
      | None ->
        if c.wclosed then None
        else begin
          Condition.wait c.wcv c.wm;
          next ()
        end
    in
    let item = next () in
    Mutex.unlock c.wm;
    match item with
    | None -> ()
    | Some buf -> (
      match write_all buf 0 (Bytes.length buf) with
      | () -> loop ()
      | exception Unix.Unix_error (_, _, _) ->
        (* peer gone; stop writing, the reader notices on its side *)
        conn_close_writes c)
  in
  loop ()

(* {2 The server} *)

type t = {
  cfg : config;
  exec : Pool.exec;
  sched : Scheduler.t;
  draining : bool Atomic.t;
  registry : (string, Storage.Predicate.t) Hashtbl.t;
  next_gid : int Atomic.t;
  n_conns : int Atomic.t;
  n_sessions : int Atomic.t;
  n_frames : int Atomic.t;
  n_protocol_errors : int Atomic.t;
  n_disconnects : int Atomic.t;
}

let emit_external t ~tid kind =
  match t.cfg.pool.Pool.trace with
  | Some sink -> Trace.Sink.emit_external sink ~worker:0 ~tid kind
  | None -> ()

let emit_inline t ~tid kind =
  (* from a scheduler worker domain: the ring is DLS-attached *)
  match t.cfg.pool.Pool.trace with
  | Some sink -> Trace.Sink.emit sink ~tid kind
  | None -> ()

let lookup_pred t : Protocol.pred -> (Storage.Predicate.t, string) result =
  function
  | Protocol.Named name -> (
    match Hashtbl.find_opt t.registry name with
    | Some p -> Ok p
    | None -> Error ("unknown predicate: " ^ name))
  | Protocol.Range { name; lo; hi } ->
    Ok (Storage.Predicate.key_range ~name ~lo ~hi)

let send_response c ~sid ~req resp =
  conn_send c (Protocol.encode_response ~sid ~req resp)

(* {2 Live telemetry}

   One scrape = one {!Telemetry.Report.t}: the runtime's live reading
   (racy-tolerant counter sums — no quiesce, no join) plus the
   scheduler's gauges and this front-end's own counters. Assembled on
   whichever thread asks: a connection reader answering STATS, or the
   HTTP exposition listener. *)

let counters t =
  {
    conns = Atomic.get t.n_conns;
    sessions = Atomic.get t.n_sessions;
    frames = Atomic.get t.n_frames;
    protocol_errors = Atomic.get t.n_protocol_errors;
    disconnects = Atomic.get t.n_disconnects;
    draining = Atomic.get t.draining;
  }

let report t =
  let sg = Scheduler.gauges t.sched in
  let scheduler =
    {
      Telemetry.Report.runnable = sg.Scheduler.runnable;
      parked = sg.Scheduler.parked;
      sessions_active = sg.Scheduler.active_tasks;
      wakes = sg.Scheduler.wakes;
      wake_wait_mean_us =
        (if sg.Scheduler.wakes = 0 then 0.
         else
           float_of_int sg.Scheduler.wake_ns_total
           /. float_of_int sg.Scheduler.wakes /. 1e3);
      wake_wait_max_us = float_of_int sg.Scheduler.wake_ns_max /. 1e3;
    }
  in
  Telemetry.Report.make ~scheduler ~server:(counters t) (Pool.exec_live t.exec)

let open_session t c ~sid ~req =
  if Atomic.get t.draining then
    send_response c ~sid ~req
      (Protocol.Error { code = Protocol.err_draining; msg = "server draining" })
  else begin
    Mutex.lock c.sm;
    let fresh = not (Hashtbl.mem c.sessions sid) in
    Mutex.unlock c.sm;
    if not fresh then
      send_response c ~sid ~req
        (Protocol.Error
           { code = Protocol.err_bad_state; msg = "session already open" })
    else begin
      let gid = Atomic.fetch_and_add t.next_gid 1 in
      Atomic.incr t.n_sessions;
      let s =
        Session.create ~sid ~gid ~conn:c.cid ~exec:t.exec ~draining:t.draining
          ~lookup_pred:(lookup_pred t)
          ~send:(fun ~req resp -> send_response c ~sid ~req resp)
          ~emit:(fun ~tid kind -> emit_inline t ~tid kind)
          ~on_close:(fun s ->
            Mutex.lock c.sm;
            Hashtbl.remove c.sessions (Session.sid s);
            Mutex.unlock c.sm)
          ~kick:(Scheduler.kick t.sched) ~level:t.cfg.default_level
      in
      let task = Scheduler.task (fun ~worker -> Session.pump s ~worker) in
      Session.set_task s task;
      Mutex.lock c.sm;
      Hashtbl.replace c.sessions sid s;
      Mutex.unlock c.sm;
      emit_external t ~tid:0
        (Trace.Event.Session_open { conn = c.cid; session = gid });
      send_response c ~sid ~req Protocol.Ok_resp
    end
  end

(* Feed every session of a dying connection a synthetic CLOSE: open
   transactions abort through the normal pump path, on a worker domain,
   with full journal/trace accounting. Replies go to the (now closed)
   writer queue and are dropped. *)
let close_all_sessions t c =
  Mutex.lock c.sm;
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) c.sessions [] in
  Mutex.unlock c.sm;
  List.iter
    (fun s ->
      if Session.offer s ~req:0 Protocol.Close then
        Scheduler.wake t.sched (Session.task s))
    all

let handle_frame t c payload =
  match Protocol.decode_request payload with
  | Error msg ->
    Atomic.incr t.n_protocol_errors;
    send_response c ~sid:0 ~req:0
      (Protocol.Error { code = Protocol.err_malformed; msg });
    `Close "protocol_error"
  | Ok (sid, req, Protocol.Open) ->
    open_session t c ~sid ~req;
    `Continue
  | Ok (sid, req, Protocol.Stats) ->
    (* admin op, answered here on the reader thread (never enters a
       session); the reply rides the writer queue like any other
       response, so it pipelines with in-flight session traffic *)
    send_response c ~sid ~req
      (Protocol.Stats_resp (Telemetry.Report.to_json (report t)));
    `Continue
  | Ok (sid, req, request) -> (
    Mutex.lock c.sm;
    let s = Hashtbl.find_opt c.sessions sid in
    Mutex.unlock c.sm;
    match s with
    | None ->
      send_response c ~sid ~req
        (Protocol.Error
           { code = Protocol.err_bad_state; msg = "unknown session" });
      `Continue
    | Some s ->
      if Session.offer s ~req request then Scheduler.wake t.sched (Session.task s)
      else
        send_response c ~sid ~req
          (Protocol.Error
             { code = Protocol.err_bad_state; msg = "session closed" });
      `Continue)

let reader_loop t c =
  let buf = Bytes.create 65536 in
  let reader = Protocol.Reader.create () in
  let rec frames () =
    match Protocol.Reader.next reader with
    | `Awaiting -> `Continue
    | `Corrupt msg ->
      Atomic.incr t.n_protocol_errors;
      send_response c ~sid:0 ~req:0
        (Protocol.Error { code = Protocol.err_malformed; msg });
      `Close "protocol_error"
    | `Frame payload -> (
      c.frames_seen <- c.frames_seen + 1;
      Atomic.incr t.n_frames;
      let injected =
        match t.cfg.pool.Pool.fault with
        | Some plan -> (
          match
            Fault.Plan.point plan ~tid:c.cid
              (Fault.Plan.Frame { seq = c.frames_seen })
          with
          | Some Fault.Plan.Disconnect ->
            Atomic.incr t.n_disconnects;
            true
          | Some _ | None -> false)
        | None -> false
      in
      if injected then `Close "fault"
      else
        match handle_frame t c payload with
        | `Close _ as close -> close
        | `Continue -> frames ())
  in
  let rec loop () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> "eof"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) -> "eof"
    | n -> (
      Protocol.Reader.feed reader buf ~pos:0 ~len:n;
      match frames () with
      | `Continue -> loop ()
      | `Close reason -> reason)
  in
  let reason = loop () in
  emit_external t ~tid:0
    (Trace.Event.Conn_close { conn = c.cid; reason });
  close_all_sessions t c;
  conn_close_writes c

(* {2 The exposition endpoint}

   A deliberately tiny HTTP/1.0 responder: every request — whatever the
   path — gets the current Prometheus exposition and the connection is
   closed. Scrapers arrive every few seconds; keep-alive and request
   parsing would buy nothing. *)

let http_reply fd body =
  let msg =
    Bytes.of_string
      (Printf.sprintf
         "HTTP/1.0 200 OK\r\n\
          Content-Type: text/plain; version=0.0.4\r\n\
          Content-Length: %d\r\n\
          \r\n\
          %s"
         (String.length body) body)
  in
  let rec write_all pos len =
    if len > 0 then
      match Unix.write fd msg pos len with
      | n -> write_all (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all pos len
  in
  try write_all 0 (Bytes.length msg) with Unix.Unix_error (_, _, _) -> ()

let telemetry_loop t fd ~should_stop =
  let buf = Bytes.create 1024 in
  let rec loop () =
    if not (should_stop ()) then begin
      (match Unix.select [ fd ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept fd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | cfd, _ ->
          (try ignore (Unix.read cfd buf 0 (Bytes.length buf))
           with Unix.Unix_error (_, _, _) -> ());
          http_reply cfd (Telemetry.Report.to_prometheus (report t));
          (try Unix.close cfd with Unix.Unix_error (_, _, _) -> ())));
      loop ()
    end
  in
  loop ()

(* {2 Serving} *)

let now () = Unix.gettimeofday ()

let serve cfg =
  (* a dead peer must not kill the server on write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let exec = Pool.exec_create cfg.pool ~family:cfg.family in
  let sched =
    Scheduler.create ~workers:cfg.pool.Pool.workers ~attach:(fun i ->
        Pool.exec_attach_worker exec ~worker:i)
  in
  let registry = Hashtbl.create 16 in
  Hashtbl.replace registry
    (Storage.Predicate.name Storage.Predicate.all)
    Storage.Predicate.all;
  List.iter
    (fun p -> Hashtbl.replace registry (Storage.Predicate.name p) p)
    cfg.pool.Pool.predicates;
  let t =
    {
      cfg;
      exec;
      sched;
      draining = Atomic.make false;
      registry;
      next_gid = Atomic.make 0;
      n_conns = Atomic.make 0;
      n_sessions = Atomic.make 0;
      n_frames = Atomic.make 0;
      n_protocol_errors = Atomic.make 0;
      n_disconnects = Atomic.make 0;
    }
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 128;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  cfg.on_ready port;
  let conns_m = Mutex.create () in
  let conns : conn list ref = ref [] in
  let threads : Thread.t list ref = ref [] in
  let deadline = Option.map (fun d -> now () +. d) cfg.duration_s in
  let should_stop () =
    Atomic.get cfg.stop
    || match deadline with Some d -> now () > d | None -> false
  in
  let telemetry =
    match cfg.telemetry_port with
    | None -> None
    | Some tport ->
      let tfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt tfd Unix.SO_REUSEADDR true;
      Unix.bind tfd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, tport));
      Unix.listen tfd 16;
      let bound =
        match Unix.getsockname tfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> tport
      in
      cfg.telemetry_ready bound;
      Some (tfd, Thread.create (fun () -> telemetry_loop t tfd ~should_stop) ())
  in
  (* accept loop *)
  let rec accept_loop () =
    if not (should_stop ()) then begin
      match Unix.select [ listen_fd ] [] [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* a signal (typically the SIGINT drain) interrupted the poll;
           the loop condition re-checks the stop flag *)
        accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error (_, _, _) -> accept_loop ()
        | fd, _ ->
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          let cid = Atomic.fetch_and_add t.n_conns 1 in
          let c =
            {
              cid;
              fd;
              wm = Mutex.create ();
              wcv = Condition.create ();
              wq = Queue.create ();
              wclosed = false;
              sm = Mutex.create ();
              sessions = Hashtbl.create 64;
              frames_seen = 0;
            }
          in
          emit_external t ~tid:0 (Trace.Event.Conn_open { conn = cid });
          let writer = Thread.create writer_loop c in
          let reader =
            Thread.create
              (fun () ->
                reader_loop t c;
                Thread.join writer;
                try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
              ()
          in
          Mutex.lock conns_m;
          conns := c :: !conns;
          threads := reader :: !threads;
          Mutex.unlock conns_m;
          accept_loop ())
    end
  in
  accept_loop ();
  (* drain: no new work, let in-flight transactions finish *)
  Atomic.set t.draining true;
  (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
  (match telemetry with
  | None -> ()
  | Some (tfd, th) ->
    (* the loop re-checks [should_stop] at select granularity; join it
       before the exec is finalized so no scrape races the teardown *)
    Thread.join th;
    (try Unix.close tfd with Unix.Unix_error (_, _, _) -> ()));
  ignore (Scheduler.quiesce sched ~timeout_s:cfg.drain_grace_s);
  (* sever the connections; readers see EOF and close every session
     through the pump path *)
  Mutex.lock conns_m;
  let live_conns = !conns and live_threads = !threads in
  Mutex.unlock conns_m;
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error (_, _, _) -> ())
    live_conns;
  List.iter Thread.join live_threads;
  ignore (Scheduler.quiesce sched ~timeout_s:(cfg.drain_grace_s +. 2.0));
  Scheduler.stop sched;
  let result = Pool.exec_finalize exec in
  (result, counters t)
