(* The session scheduler: N worker domains multiplexing many more
   tasks (sessions) than workers.

   A task is a pump closure plus a scheduling state. The reader threads
   wake a task when input arrives; a worker picks it off the ready queue
   and pumps it until it reports one of three outcomes: [`Idle] (inbox
   drained — wait for more input), [`Park] (its transaction is blocked —
   sleep until {!kick}ed, freeing the worker for runnable sessions), or
   [`Yield] (still runnable — go to the back of the queue so siblings
   get a turn).

   Parks are untimed. A parked session waits for the transactions it is
   blocked on, and the runtime kicks it when one of them finishes (or
   when it is itself chosen as a deadlock or certifier victim): the
   waits-for graph's in-edges are the wait queues.

   Two lost-wakeup races are closed by the state machine under the
   scheduler mutex. Input arriving between the pump's last inbox check
   and the worker marking the task idle marks a [Running] task
   [Running_dirty], and the worker's post-pump transition re-queues a
   dirty task instead of idling it. A kick arriving while the task is
   still running — its blocked step has published its wait, but the
   pump has not returned [`Park] yet — sets [kicked], and the post-pump
   transition re-queues the park instead of sleeping it. *)

type outcome = [ `Idle | `Park | `Yield ]

type state =
  | Idle          (* waiting for input; not owned by the scheduler *)
  | Queued        (* on the ready queue *)
  | Running       (* being pumped by a worker *)
  | Running_dirty (* being pumped; new input arrived meanwhile *)
  | Parked        (* blocked; waits for a kick *)

type task = {
  pump : worker:int -> outcome;
  mutable state : state;
  mutable kicked : bool;      (* kicked while running: don't sleep the park *)
  mutable queued_at_ns : int; (* stamp of the last enqueue, for wake latency *)
}

let task pump = { pump; state = Idle; kicked = false; queued_at_ns = 0 }

type t = {
  m : Mutex.t;
  cv : Condition.t;        (* workers wait here for ready tasks *)
  ready : task Queue.t;
  mutable parked : int;    (* tasks in [Parked] *)
  mutable active : int;    (* tasks not in [Idle] *)
  (* Wake-to-run accounting: how long tasks sit on the ready queue
     between enqueue and a worker popping them — the scheduler's own
     saturation number (it grows when sessions outnumber worker
     bandwidth). All under [m], like the queues they describe. *)
  mutable wakes : int;
  mutable wake_ns_total : int;
  mutable wake_ns_max : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let enqueue_locked t task =
  task.state <- Queued;
  task.queued_at_ns <- now_ns ();
  Queue.push task t.ready;
  Condition.signal t.cv

(* Input arrived for [task]: make sure it gets pumped. *)
let wake t task =
  Mutex.lock t.m;
  (match task.state with
  | Idle ->
    t.active <- t.active + 1;
    enqueue_locked t task
  | Running -> task.state <- Running_dirty
  | Queued | Running_dirty | Parked -> ());
  Mutex.unlock t.m

(* What the task was blocked on has finished: resume a parked task, or
   keep a running one from parking. *)
let kick t task =
  Mutex.lock t.m;
  (match task.state with
  | Parked ->
    t.parked <- t.parked - 1;
    enqueue_locked t task
  | Running | Running_dirty -> task.kicked <- true
  | Idle | Queued -> ());
  Mutex.unlock t.m

let worker_loop t ~attach widx =
  attach widx;
  Mutex.lock t.m;
  let rec loop () =
    if Queue.is_empty t.ready && not t.stopped then begin
      Condition.wait t.cv t.m;
      loop ()
    end
    else if Queue.is_empty t.ready then Mutex.unlock t.m (* stopped + drained *)
    else begin
      let task = Queue.pop t.ready in
      task.state <- Running;
      task.kicked <- false;
      let waited = now_ns () - task.queued_at_ns in
      t.wakes <- t.wakes + 1;
      if waited > 0 then begin
        t.wake_ns_total <- t.wake_ns_total + waited;
        if waited > t.wake_ns_max then t.wake_ns_max <- waited
      end;
      Mutex.unlock t.m;
      let outcome =
        try task.pump ~worker:widx
        with e ->
          (* A pump failure must not kill its worker: report it, wedge
             only the one session. *)
          Printf.eprintf "scheduler: pump raised %s\n%!" (Printexc.to_string e);
          `Idle
      in
      Mutex.lock t.m;
      (match outcome with
      | `Idle when task.state = Running ->
        task.state <- Idle;
        t.active <- t.active - 1
      | `Idle | `Yield ->
        (* dirty idle: input raced in while pumping — run it again *)
        enqueue_locked t task
      | `Park when task.kicked -> enqueue_locked t task
      | `Park ->
        (* a park with pending input still parks: the blocked operation
           must complete before the new input can be served anyway *)
        task.state <- Parked;
        t.parked <- t.parked + 1);
      loop ()
    end
  in
  loop ()

let create ~workers ~attach =
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      ready = Queue.create ();
      parked = 0;
      active = 0;
      wakes = 0;
      wake_ns_total = 0;
      wake_ns_max = 0;
      stopped = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (max 1 workers) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~attach i));
  t

let active t =
  Mutex.lock t.m;
  let n = t.active in
  Mutex.unlock t.m;
  n

type gauges = {
  runnable : int;
  parked : int;
  active_tasks : int;
  wakes : int;
  wake_ns_total : int;
  wake_ns_max : int;
}

(* One mutex hold, so the reading is internally consistent — the same
   exclusion every enqueue/pop takes, making a scrape as intrusive as
   one more wake. *)
let gauges t =
  Mutex.lock t.m;
  let g =
    {
      runnable = Queue.length t.ready;
      parked = t.parked;
      active_tasks = t.active;
      wakes = t.wakes;
      wake_ns_total = t.wake_ns_total;
      wake_ns_max = t.wake_ns_max;
    }
  in
  Mutex.unlock t.m;
  g

(* Wait (politely) until every task has gone idle; [false] on timeout.
   Parked tasks count as active — a drain waits for their holders. *)
let quiesce t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if active t = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ()

(* Stop the workers once the ready queue drains. Parked tasks are
   abandoned (the caller has already quiesced or force-closed them). *)
let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []
