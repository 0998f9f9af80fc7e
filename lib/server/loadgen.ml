(* The load generator: N client sessions multiplexed over a handful of
   connections, each driven as a little state machine with at most one
   outstanding request — so a blocked session costs the generator
   nothing while its siblings on the same socket keep pipelining.

   Programs come from {!Workload.Generators.stress_program}, seeded by
   (seed, global txn index), so a loadgen run requests the same work the
   in-process stress harness would execute. Expressions are evaluated
   client-side: the generator maintains each transaction's
   {!Core.Program.env} from the VALUE/ROWS replies and sends computed
   constants over the wire — the read-modify-write data flow travels
   through the protocol, not around it.

   Aborted transactions retry with a fresh BEGIN (attempt + 1) after a
   client-side exponential backoff, up to [max_attempts]; DRAINING
   errors end the session gracefully. *)

module Program = Core.Program
module Level = Isolation.Level
module Generators = Workload.Generators

type config = {
  host : string;
  port : int;
  sessions : int;
  conns : int;  (** sockets; sessions are spread round-robin *)
  txns_per_session : int;
  mix : Generators.mix;
  levels : (Level.t * float) list;
      (** weighted per-session level choice (SET LEVEL once at open) *)
  accounts : int;
  hot : int;
  ops : int;
  think_us : float;  (** mean think time between a session's requests *)
  seed : int;
  max_attempts : int;
  progress_s : float;  (** > 0: print an interval line this often *)
}

let config ?(host = "127.0.0.1") ?(port = 7654) ?(sessions = 64) ?conns
    ?(txns_per_session = 10) ?(mix = Generators.Hotspot)
    ?(levels = [ (Level.Read_committed, 1.0) ]) ?(accounts = 16) ?(hot = 4)
    ?(ops = 6) ?(think_us = 0.) ?(seed = 42) ?(max_attempts = 10)
    ?(progress_s = 0.) () =
  let conns =
    match conns with Some c -> max 1 c | None -> max 1 (min sessions 32)
  in
  { host; port; sessions; conns; txns_per_session; mix; levels; accounts; hot;
    ops; think_us; seed; max_attempts; progress_s }

type stats = {
  sessions : int;
  committed : int;
  aborted : int;  (** abort replies received (each triggers a retry) *)
  giveups : int;  (** transactions dropped after [max_attempts] *)
  draining_rejects : int;
  protocol_errors : int;
  requests : int;
  wall_s : float;
  throughput : float;  (** committed transactions per second *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;  (** commit latency: BEGIN sent -> COMMITTED received *)
}

let pp_stats ppf s =
  Fmt.pf ppf
    "sessions=%d committed=%d aborted=%d giveups=%d draining=%d proto_errs=%d \
     reqs=%d wall=%.2fs tput=%.0f/s p50=%.2fms p95=%.2fms p99=%.2fms"
    s.sessions s.committed s.aborted s.giveups s.draining_rejects
    s.protocol_errors s.requests s.wall_s s.throughput s.p50_ms s.p95_ms
    s.p99_ms

(* {2 Per-session client state machine}

   [await] tags the outstanding request so the reply is interpreted in
   context; a session has at most one in flight. *)

type await =
  | A_open
  | A_level
  | A_begin
  | A_op of Program.op
  | A_close

type sess = {
  sid : int;
  gid : int;
  level : Level.t;
  rng : Random.State.t;
  mutable opened : bool;
  mutable leveled : bool;
  mutable in_txn : bool;
  mutable txn_i : int;
  mutable attempt : int;
  mutable ops_left : Program.op list;
  mutable env : Program.env;
  mutable begin_s : float;  (* BEGIN send stamp, for commit latency *)
  mutable due : float;      (* no sends before this wall time *)
  mutable outstanding : (int * await) option;
  mutable done_ : bool;
}

type counters = {
  mutable c_committed : int;
  mutable c_aborted : int;
  mutable c_giveups : int;
  mutable c_draining : int;
  mutable c_proto : int;
  mutable c_requests : int;
  mutable c_latencies_ms : float list;
  mutable c_done : int;
}

(* The weighted draw is the workload library's ({!Workload.Mix.pick}) —
   one parser, one draw, shared with stress/chaos. *)
let pick_level cfg rng =
  match cfg.levels with
  | [] -> Level.Read_committed
  | mix -> Workload.Mix.pick mix rng

let think cfg s now =
  if cfg.think_us <= 0. then now
  else
    let u = Random.State.float s.rng 1.0 in
    now +. (cfg.think_us *. -.log (1. -. u) /. 1e6)

let retry_delay s ~attempt =
  let window = min (200e-6 *. (2. ** float (attempt - 1))) 5e-3 in
  Random.State.float s.rng window

let wire_op env op =
  match op with
  | Program.Read k -> Some (Protocol.Read k)
  | Program.Write (k, e) -> Some (Protocol.Write (k, e env))
  | Program.Insert (k, e) -> Some (Protocol.Insert (k, e env))
  | Program.Delete k -> Some (Protocol.Delete k)
  | Program.Scan pred -> (
    let name = Storage.Predicate.name pred in
    match Storage.Predicate.range_bounds pred with
    | Some (lo, hi) -> Some (Protocol.Predicate (Protocol.Range { name; lo; hi }))
    | None -> Some (Protocol.Predicate (Protocol.Named name)))
  | Program.Commit -> Some Protocol.Commit
  | Program.Abort -> Some Protocol.Abort
  | Program.Open_cursor _ | Program.Fetch _ | Program.Cursor_write _
  | Program.Close_cursor _ ->
    None (* not on the wire; the stress mixes never emit them *)

let fresh_program cfg s =
  let index = (s.gid * cfg.txns_per_session) + s.txn_i in
  Generators.stress_program cfg.mix ~seed:cfg.seed ~accounts:cfg.accounts
    ~hot:cfg.hot ~ops:cfg.ops ~index

let finish ct s =
  if not s.done_ then begin
    s.done_ <- true;
    s.outstanding <- None;
    ct.c_done <- ct.c_done + 1
  end

(* Send the session's next request, if it is idle and its clock allows. *)
let rec advance cfg cl ct now s =
  if s.done_ || s.outstanding <> None || s.due > now then ()
  else begin
    let send await req =
      ct.c_requests <- ct.c_requests + 1;
      s.outstanding <- Some (Client.send cl ~sid:s.sid req, await)
    in
    if not s.opened then send A_open Protocol.Open
    else if not s.leveled then
      send A_level (Protocol.Set_level (Level.name s.level))
    else if s.in_txn then begin
      match s.ops_left with
      | [] ->
        (* programs end in Commit/Abort; defensively close a dangling txn *)
        send (A_op Program.Commit) Protocol.Commit
      | op :: rest -> (
        match wire_op s.env op with
        | Some w -> send (A_op op) w
        | None ->
          s.ops_left <- rest;
          advance cfg cl ct now s
        | exception Invalid_argument _ ->
          (* an expression over a row the server doesn't have (e.g.
             mismatched --accounts): fail the session loudly but cleanly *)
          ct.c_proto <- ct.c_proto + 1;
          finish ct s)
    end
    else if s.txn_i >= cfg.txns_per_session then send A_close Protocol.Close
    else begin
      let prog = fresh_program cfg s in
      s.ops_left <- prog.Program.ops;
      s.env <- Program.empty_env;
      s.begin_s <- now;
      send A_begin
        (Protocol.Begin
           { read_only = false; attempt = s.attempt; name = prog.Program.name })
    end
  end

let txn_over ct s now ~(committed : bool) =
  s.in_txn <- false;
  s.ops_left <- [];
  if committed then begin
    ct.c_committed <- ct.c_committed + 1;
    ct.c_latencies_ms <- ((now -. s.begin_s) *. 1e3) :: ct.c_latencies_ms;
    s.txn_i <- s.txn_i + 1;
    s.attempt <- 1
  end
  else begin
    ct.c_aborted <- ct.c_aborted + 1;
    s.attempt <- s.attempt + 1
  end

let on_reply cfg ct now s await (resp : Protocol.response) =
  match (await, resp) with
  | A_open, Protocol.Ok_resp -> s.opened <- true
  | A_open, _ -> finish ct s
  | A_level, Protocol.Ok_resp -> s.leveled <- true
  | A_level, _ ->
    (* level refused (wrong family): carry on at the server default *)
    ct.c_proto <- ct.c_proto + 1;
    s.leveled <- true
  | A_begin, Protocol.Ok_resp ->
    s.in_txn <- true;
    s.due <- think cfg s now
  | A_begin, Protocol.Error { code; _ } when code = Protocol.err_draining ->
    ct.c_draining <- ct.c_draining + 1;
    (* stop generating; close the session politely *)
    s.txn_i <- cfg.txns_per_session
  | A_begin, _ ->
    ct.c_proto <- ct.c_proto + 1;
    finish ct s
  | A_op op, resp -> (
    match resp with
    | Protocol.Committed -> txn_over ct s now ~committed:true; s.due <- think cfg s now
    | Protocol.Aborted _ ->
      txn_over ct s now ~committed:false;
      if s.attempt > cfg.max_attempts then begin
        ct.c_giveups <- ct.c_giveups + 1;
        s.txn_i <- s.txn_i + 1;
        s.attempt <- 1;
        s.due <- think cfg s now
      end
      else s.due <- now +. retry_delay s ~attempt:s.attempt
    | Protocol.Value v ->
      (match op with
      | Program.Read k -> s.env <- Program.observe_read s.env k v
      | _ -> ());
      s.ops_left <- (match s.ops_left with _ :: r -> r | [] -> []);
      s.due <- think cfg s now
    | Protocol.Rows rows ->
      (match op with
      | Program.Scan pred ->
        s.env <- Program.observe_scan s.env (Storage.Predicate.name pred) rows
      | _ -> ());
      s.ops_left <- (match s.ops_left with _ :: r -> r | [] -> []);
      s.due <- think cfg s now
    | Protocol.Ok_resp ->
      s.ops_left <- (match s.ops_left with _ :: r -> r | [] -> []);
      s.due <- think cfg s now
    | Protocol.Error _ | Protocol.Stats_resp _ ->
      ct.c_proto <- ct.c_proto + 1;
      finish ct s)
  | A_close, _ -> finish ct s

(* {2 Driving one connection} *)

let drive cfg ct sess_list =
  let cl = Client.connect ~host:cfg.host ~port:cfg.port in
  let by_sid = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_sid s.sid s) sess_list;
  let n = List.length sess_list in
  let abandon () =
    List.iter (fun s -> finish ct s) sess_list
  in
  let last_progress = ref (Unix.gettimeofday ()) in
  let rec loop () =
    if ct.c_done < n && List.exists (fun s -> not s.done_) sess_list then begin
      let now = Unix.gettimeofday () in
      List.iter (advance cfg cl ct now) sess_list;
      (* wait bound: the soonest client-side timer, else a coarse poll *)
      let timeout =
        List.fold_left
          (fun acc s ->
            if s.done_ || s.outstanding <> None then acc
            else min acc (max 0.0005 (s.due -. now)))
          0.05 sess_list
      in
      match Client.recv ~timeout_s:timeout cl with
      | Error _ ->
        ct.c_proto <- ct.c_proto + 1;
        abandon ()
      | Ok None ->
        if
          Unix.gettimeofday () -. !last_progress > 30.
          && List.exists (fun s -> s.outstanding <> None) sess_list
        then abandon () (* server unresponsive; bail rather than hang *)
        else loop ()
      | Ok (Some (sid, req, resp)) -> (
        last_progress := Unix.gettimeofday ();
        (match Hashtbl.find_opt by_sid sid with
        | Some s -> (
          match s.outstanding with
          | Some (r, await) when r = req ->
            s.outstanding <- None;
            on_reply cfg ct (Unix.gettimeofday ()) s await resp
          | _ -> () (* stale reply (e.g. after abandon); drop *))
        | None -> ());
        loop ())
    end
  in
  (try loop () with Unix.Unix_error (_, _, _) -> abandon ());
  Client.close cl

(* {2 Running} *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float n)))

let run cfg =
  let t0 = Unix.gettimeofday () in
  let conns = max 1 (min cfg.conns cfg.sessions) in
  let groups = Array.make conns [] in
  for gid = cfg.sessions - 1 downto 0 do
    let rng = Random.State.make [| 0x10ad; cfg.seed; gid |] in
    let s =
      {
        sid = gid;  (* globally unique; fine to scope per connection *)
        gid;
        level = pick_level cfg rng;
        rng;
        opened = false;
        leveled = false;
        in_txn = false;
        txn_i = 0;
        attempt = 1;
        ops_left = [];
        env = Program.empty_env;
        begin_s = 0.;
        due = 0.;
        outstanding = None;
        done_ = false;
      }
    in
    let c = gid mod conns in
    groups.(c) <- s :: groups.(c)
  done;
  let counters =
    Array.init conns (fun _ ->
        {
          c_committed = 0;
          c_aborted = 0;
          c_giveups = 0;
          c_draining = 0;
          c_proto = 0;
          c_requests = 0;
          c_latencies_ms = [];
          c_done = 0;
        })
  in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i group -> Thread.create (fun () -> drive cfg counters.(i) group) ())
         groups)
  in
  (* The progress reporter reads the driver threads' counters without a
     lock: plain int fields are individually atomic in OCaml, and
     {!Telemetry.Window.delta} tolerates the cross-counter skew. *)
  let progress_stop = ref false in
  let progress_thread =
    if cfg.progress_s <= 0. then None
    else
      Some
        (Thread.create
           (fun () ->
             let sum f = Array.fold_left (fun a c -> a + f c) 0 counters in
             let cut () : Telemetry.Window.sample =
               {
                 at = Unix.gettimeofday ();
                 committed = sum (fun c -> c.c_committed);
                 aborted = sum (fun c -> c.c_aborted);
                 aborted_by = [];
                 retries = 0;
                 giveups = sum (fun c -> c.c_giveups);
                 deadlocks = 0;
                 stalls = 0;
                 certifier_aborts = 0;
                 per_level = [];
                 lat_hist = [||];
                 epoch = 0;
                 epoch_max_ns = [||];
               }
             in
             let prev = ref (cut ()) in
             let next = ref ((!prev).at +. cfg.progress_s) in
             let total = cfg.sessions * cfg.txns_per_session in
             while not !progress_stop do
               Thread.delay (min 0.1 cfg.progress_s);
               let now = Unix.gettimeofday () in
               if (not !progress_stop) && now >= !next then begin
                 let s = cut () in
                 (* progress-vs-RSS: the million-transaction preset's
                    flat-memory evidence, one line per interval (the
                    generator's own RSS — the server reports its side
                    through STATS/telemetry) *)
                 Fmt.epr "loadgen: %a | %d/%d txns (%.1f%%), rss %d MiB@."
                   Telemetry.Window.pp_rates
                   (Telemetry.Window.delta !prev s)
                   s.Telemetry.Window.committed total
                   (100. *. float s.Telemetry.Window.committed
                   /. float (max 1 total))
                   (Runtime.Sysmem.vm_rss_kb () / 1024);
                 prev := s;
                 next := now +. cfg.progress_s
               end
             done)
           ())
  in
  List.iter Thread.join threads;
  (match progress_thread with
  | None -> ()
  | Some th ->
    progress_stop := true;
    Thread.join th);
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 counters in
  let lats =
    Array.fold_left (fun a c -> List.rev_append c.c_latencies_ms a) [] counters
  in
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let committed = sum (fun c -> c.c_committed) in
  {
    sessions = cfg.sessions;
    committed;
    aborted = sum (fun c -> c.c_aborted);
    giveups = sum (fun c -> c.c_giveups);
    draining_rejects = sum (fun c -> c.c_draining);
    protocol_errors = sum (fun c -> c.c_proto);
    requests = sum (fun c -> c.c_requests);
    wall_s;
    throughput = (if wall_s > 0. then float committed /. wall_s else 0.);
    p50_ms = percentile sorted 0.50;
    p95_ms = percentile sorted 0.95;
    p99_ms = percentile sorted 0.99;
  }
