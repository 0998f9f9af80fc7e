(* Runtime metrics. Plain counters are sharded per domain and recorded
   lock-free; a commit's latencies go into log2-bucketed histograms in
   one short critical section. Quantiles read the histogram and
   interpolate log-linearly within the bucket that holds the rank, so
   they stay within one bucket (successive buckets differ by 2x) of the
   exact value, and distinct quantiles inside one bucket still read
   apart. A snapshot caps them at the exact max latency. *)

module Engine = Core.Engine
module L = Isolation.Level

let buckets = 64

let levels = Array.of_list L.all
let nlevels = Array.length levels

let level_index = function
  | L.Degree_0 -> 0
  | L.Read_uncommitted -> 1
  | L.Read_committed -> 2
  | L.Cursor_stability -> 3
  | L.Repeatable_read -> 4
  | L.Snapshot -> 5
  | L.Oracle_read_consistency -> 6
  | L.Serializable_snapshot -> 7
  | L.Timestamp_ordering -> 8
  | L.Serializable -> 9

type t = {
  counts : Stripes.Counter.t;
  (* Commit latencies and their epochs, all guarded by [hist_m]: one
     short critical section per commit, and plain arrays rather than an
     atomic per bucket, which keeps [create] cheap. *)
  hist_m : Mutex.t;
  lat_hist : int array;           (* bucket = log2 ns *)
  mutable lat_max_ns : int;       (* high-water mark *)
  (* Interval maxima: every snapshot closes an epoch, moving
     [epoch_max_ns] (raised like [lat_max_ns]) into the closed epoch's
     ring slot, so any two snapshots at most [epochs] apart bound the
     commit latencies recorded between them. *)
  mutable epoch_max_ns : int;
  mutable epoch : int;
  epoch_ring : int array;         (* epoch e's max at e mod [epochs] *)
  (* Phase breakdown of committed attempts: wall = exec + lock wait.
     Failed attempts land in the retry overhead counter instead (their
     whole wall time, plus the restart backoffs between attempts). *)
  exec_hist : int array;
  cwait_hist : int array;
  (* Striped-execution observability: per-stripe acquisition counts and
     how many of those acquisitions found the stripe mutex held (a failed
     try_lock). One atomic pair per stripe — a worker increments only the
     stripes it acquires, so there is no shared hot cell. *)
  stripe_acquired : int Atomic.t array;
  stripe_contended : int Atomic.t array;
  mutable started_at : float;
  mutable stopped_at : float;
}

let reasons =
  [| Engine.User_abort; Engine.Deadlock_victim; Engine.First_committer_wins;
     Engine.First_updater_wins; Engine.Serialization_failure; Engine.Too_late;
     Engine.Fault_injected; Engine.Deadline_exceeded; Engine.Certifier_abort |]

let reason_index = function
  | Engine.User_abort -> 0
  | Engine.Deadlock_victim -> 1
  | Engine.First_committer_wins -> 2
  | Engine.First_updater_wins -> 3
  | Engine.Serialization_failure -> 4
  | Engine.Too_late -> 5
  | Engine.Fault_injected -> 6
  | Engine.Deadline_exceeded -> 7
  | Engine.Certifier_abort -> 8

let abort_reason_slug = function
  | Engine.User_abort -> "user_abort"
  | Engine.Deadlock_victim -> "deadlock_victim"
  | Engine.First_committer_wins -> "first_committer_wins"
  | Engine.First_updater_wins -> "first_updater_wins"
  | Engine.Serialization_failure -> "serialization_failure"
  | Engine.Too_late -> "too_late"
  | Engine.Fault_injected -> "fault_injected"
  | Engine.Deadline_exceeded -> "deadline_exceeded"
  | Engine.Certifier_abort -> "certifier_abort"

(* Every sharded counter lives in one {!Stripes.Counter} bank, at the
   index below. *)
let c_committed = 0
let c_retries = 1
let c_giveups = 2
let c_deadlocks = 3
let c_stalls = 4
let c_lock_waits = 5
let c_wait_ns = 6
let c_lat_sum_ns = 7
let c_exec_sum_ns = 8
let c_cwait_sum_ns = 9
let c_retry_overhead_ns = 10
(* Chaos counters: faults the plan actually injected, attempts that blew
   their deadline, and watchdog sightings of a stuck worker. The first
   two also show up as abort reasons; these count events, not aborts (a
   stall injects a fault but aborts nothing). *)
let c_faults_injected = 11
let c_deadline_exceeded = 12
let c_watchdog_kicks = 13
(* Online certification: transactions the certifier doomed because one
   of their actions closed a dependency cycle. Also an abort reason; kept
   as its own counter so the stress report surfaces it even when buried
   among retries. *)
let c_certifier_aborts = 14
let nreasons = Array.length reasons
let c_aborted i = 15 + i (* by [reason_index] *)
(* Per-isolation-level outcome breakdown (by [level_index]). Only the
   sites that know the transaction's level feed these, so the column sums
   can trail the global counters (e.g. certifier dooms noticed outside a
   leveled context). *)
let c_level_commits i = 15 + nreasons + i
let c_level_aborts i = 15 + nreasons + nlevels + i
let c_level_dooms i = 15 + nreasons + (2 * nlevels) + i
let ncounters = 15 + nreasons + (3 * nlevels)

let epochs = 32

let create ?(stripes = 1) ?(cells = 16) () =
  let nstripes = max 1 stripes + 1 (* + the predicate stripe *) in
  {
    counts = Stripes.Counter.create ~stripes:cells ~counters:ncounters ();
    hist_m = Mutex.create ();
    lat_hist = Array.make buckets 0;
    lat_max_ns = 0;
    epoch_max_ns = 0;
    epoch = 0;
    epoch_ring = Array.make epochs 0;
    exec_hist = Array.make buckets 0;
    cwait_hist = Array.make buckets 0;
    stripe_acquired = Array.init nstripes (fun _ -> Atomic.make 0);
    stripe_contended = Array.init nstripes (fun _ -> Atomic.make 0);
    started_at = 0.;
    stopped_at = 0.;
  }

let start t = t.started_at <- Unix.gettimeofday ()
let stop t = t.stopped_at <- Unix.gettimeofday ()

(* floor (log2 ns) by binary search over the shift: six steps for any
   63-bit value, which stays below the top bucket. *)
let bucket_of_ns ns =
  let rec go b n s =
    if s = 0 then b
    else if n lsr s > 0 then go (b + s) (n lsr s) (s / 2)
    else go b n (s / 2)
  in
  min (buckets - 1) (go 0 (max 1 ns) 32)

let incr t c = Stripes.Counter.add_at t.counts c 1
let add t c n = Stripes.Counter.add_at t.counts c n
let sum t c = Stripes.Counter.sum_at t.counts c

let record_level t counter = function
  | None -> ()
  | Some level -> incr t (counter (level_index level))

let record_commit ?(wait_ns = 0) ?level t ~latency_ns =
  incr t c_committed;
  record_level t c_level_commits level;
  add t c_lat_sum_ns latency_ns;
  let wait_ns = min wait_ns latency_ns in
  let exec_ns = latency_ns - wait_ns in
  add t c_exec_sum_ns exec_ns;
  add t c_cwait_sum_ns wait_ns;
  let lat_b = bucket_of_ns latency_ns
  and exec_b = bucket_of_ns exec_ns
  and wait_b = bucket_of_ns wait_ns in
  Mutex.lock t.hist_m;
  t.lat_hist.(lat_b) <- t.lat_hist.(lat_b) + 1;
  t.exec_hist.(exec_b) <- t.exec_hist.(exec_b) + 1;
  t.cwait_hist.(wait_b) <- t.cwait_hist.(wait_b) + 1;
  t.lat_max_ns <- max t.lat_max_ns latency_ns;
  t.epoch_max_ns <- max t.epoch_max_ns latency_ns;
  Mutex.unlock t.hist_m

let record_retry_overhead_ns t ns = add t c_retry_overhead_ns ns

let record_abort ?level t reason =
  incr t (c_aborted (reason_index reason));
  record_level t c_level_aborts level
let record_block t = incr t c_lock_waits
let record_wait_ns t ns = add t c_wait_ns ns
let record_retry t = incr t c_retries

let record_stripe_acquire t i ~contended =
  if i >= 0 && i < Array.length t.stripe_acquired then begin
    ignore (Atomic.fetch_and_add t.stripe_acquired.(i) 1);
    if contended then ignore (Atomic.fetch_and_add t.stripe_contended.(i) 1)
  end
let record_deadlock t = incr t c_deadlocks
let deadlocks t = sum t c_deadlocks
let record_stall t = incr t c_stalls
let record_giveup t = incr t c_giveups
let record_fault t = incr t c_faults_injected
let record_deadline_exceeded t = incr t c_deadline_exceeded
let record_watchdog t = incr t c_watchdog_kicks
let record_certifier_abort ?level t =
  incr t c_certifier_aborts;
  record_level t c_level_dooms level

type level_stats = {
  level : L.t;
  l_committed : int;
  l_aborted : int;
  l_doomed : int;
}

type snapshot = {
  taken_at : float;  (* when the snapshot was cut (unix seconds) *)
  committed : int;
  aborted : (Engine.abort_reason * int) list;
  aborted_total : int;
  retries : int;
  giveups : int;
  deadlocks : int;
  stalls : int;
  lock_waits : int;
  wait_ns : int;
  wall_s : float;
  throughput : float;
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_max_ms : float;
  lat_mean_ms : float;
  exec_p50_ms : float;
  exec_p99_ms : float;
  exec_mean_ms : float;
  lock_wait_p50_ms : float;
  lock_wait_p99_ms : float;
  lock_wait_mean_ms : float;
  retry_overhead_s : float;
  stripe_acquired : int;
  stripe_contended : int;
  lock_stripe_contended : float;
  stripe_detail : (int * int) array; (* per stripe: acquired, contended *)
  faults_injected : int;
  deadline_exceeded : int;
  watchdog_kicks : int;
  certifier_aborts : int;
  lat_hist : int array;
  epoch : int;
  epoch_max_ns : int array;
  per_level : level_stats list;
}

(* Quantile from a plain bucket-count array. Bucket [b] holds latencies
   in [2^b, 2^(b+1)) ns; the rank's position among that bucket's samples
   places it log-linearly inside, each sample at the middle of its own
   share, so a lone sample reads the geometric midpoint. *)
let hist_quantile hist total q =
  if total = 0 then 0.
  else begin
    let n = Array.length hist in
    let rank = max 1 (int_of_float (ceil (q *. float total))) in
    let rec go i acc =
      if i >= n then float n
      else
        let c = hist.(i) in
        if acc + c >= rank then
          float i +. ((float (rank - acc) -. 0.5) /. float c)
        else go (i + 1) (acc + c)
    in
    (2. ** go 0 0) /. 1e6
  end

let snapshot (t : t) =
  Mutex.lock t.hist_m;
  t.epoch <- t.epoch + 1;
  t.epoch_ring.(t.epoch mod epochs) <- t.epoch_max_ns;
  t.epoch_max_ns <- 0;
  let epoch = t.epoch and epoch_max_ns = Array.copy t.epoch_ring in
  let lat_hist = Array.copy t.lat_hist
  and exec_hist = Array.copy t.exec_hist
  and cwait_hist = Array.copy t.cwait_hist
  and lat_max_ns = t.lat_max_ns in
  Mutex.unlock t.hist_m;
  let committed = sum t c_committed in
  let stripe_acquired =
    Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.stripe_acquired
  in
  let stripe_contended =
    Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.stripe_contended
  in
  let aborted_counts =
    Array.to_list
      (Array.mapi (fun i r -> (r, sum t (c_aborted i))) reasons)
  in
  let aborted = List.filter (fun (_, n) -> n > 0) aborted_counts in
  let aborted_total = List.fold_left (fun acc (_, n) -> acc + n) 0 aborted in
  let now = Unix.gettimeofday () in
  let stopped = if t.stopped_at > 0. then t.stopped_at else now in
  let wall_s = Float.max 1e-9 (stopped -. t.started_at) in
  let sum_ns = sum t c_lat_sum_ns in
  let lat_max_ms = float lat_max_ns /. 1e6 in
  (* Interpolation can land above the largest sample in the top bucket;
     a latency, or its exec or wait share, never exceeds the exact max. *)
  let quantile hist total q =
    Float.min lat_max_ms (hist_quantile hist total q)
  in
  let per_level =
    Array.to_list
      (Array.mapi
         (fun i level ->
           {
             level;
             l_committed = sum t (c_level_commits i);
             l_aborted = sum t (c_level_aborts i);
             l_doomed = sum t (c_level_dooms i);
           })
         levels)
    |> List.filter (fun l -> l.l_committed + l.l_aborted + l.l_doomed > 0)
  in
  {
    taken_at = now;
    committed;
    aborted;
    aborted_total;
    retries = sum t c_retries;
    giveups = sum t c_giveups;
    deadlocks = sum t c_deadlocks;
    stalls = sum t c_stalls;
    lock_waits = sum t c_lock_waits;
    wait_ns = sum t c_wait_ns;
    wall_s;
    throughput = float committed /. wall_s;
    lat_p50_ms = quantile lat_hist committed 0.50;
    lat_p90_ms = quantile lat_hist committed 0.90;
    lat_p99_ms = quantile lat_hist committed 0.99;
    lat_max_ms;
    lat_mean_ms =
      (if committed = 0 then 0. else float sum_ns /. float committed /. 1e6);
    exec_p50_ms = quantile exec_hist committed 0.50;
    exec_p99_ms = quantile exec_hist committed 0.99;
    exec_mean_ms =
      (if committed = 0 then 0.
       else float (sum t c_exec_sum_ns) /. float committed /. 1e6);
    lock_wait_p50_ms = quantile cwait_hist committed 0.50;
    lock_wait_p99_ms = quantile cwait_hist committed 0.99;
    lock_wait_mean_ms =
      (if committed = 0 then 0.
       else float (sum t c_cwait_sum_ns) /. float committed /. 1e6);
    retry_overhead_s = float (sum t c_retry_overhead_ns) /. 1e9;
    stripe_acquired;
    stripe_contended;
    lock_stripe_contended =
      (if stripe_acquired = 0 then 0.
       else float stripe_contended /. float stripe_acquired);
    stripe_detail =
      Array.map2
        (fun a c -> (Atomic.get a, Atomic.get c))
        t.stripe_acquired t.stripe_contended;
    faults_injected = sum t c_faults_injected;
    deadline_exceeded = sum t c_deadline_exceeded;
    watchdog_kicks = sum t c_watchdog_kicks;
    certifier_aborts = sum t c_certifier_aborts;
    lat_hist;
    epoch;
    epoch_max_ns;
    per_level;
  }

let pp ppf s =
  Fmt.pf ppf
    "@[<v>committed %d  aborted %d  retries %d  giveups %d@,\
     throughput %.0f txn/s  (wall %.3fs)@,\
     latency ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  mean %.3f@,\
     phases ms: exec p50 %.3f p99 %.3f mean %.3f | lock-wait p50 %.3f \
     p99 %.3f mean %.3f | retry overhead %.3fs@,\
     lock waits %d  wait %.3fs  deadlocks %d  stalls %d" s.committed
    s.aborted_total s.retries s.giveups s.throughput s.wall_s s.lat_p50_ms
    s.lat_p90_ms s.lat_p99_ms s.lat_max_ms s.lat_mean_ms s.exec_p50_ms
    s.exec_p99_ms s.exec_mean_ms s.lock_wait_p50_ms s.lock_wait_p99_ms
    s.lock_wait_mean_ms s.retry_overhead_s s.lock_waits
    (float s.wait_ns /. 1e9)
    s.deadlocks s.stalls;
  if s.stripe_acquired > 0 then
    Fmt.pf ppf "@,stripes: %d acquisitions  %d contended  (ratio %.4f)"
      s.stripe_acquired s.stripe_contended s.lock_stripe_contended;
  if s.faults_injected > 0 || s.deadline_exceeded > 0 || s.watchdog_kicks > 0
  then
    Fmt.pf ppf "@,chaos: faults %d  deadline exceeded %d  watchdog kicks %d"
      s.faults_injected s.deadline_exceeded s.watchdog_kicks;
  if s.certifier_aborts > 0 then
    Fmt.pf ppf "@,certifier aborts %d" s.certifier_aborts;
  if s.aborted <> [] then begin
    Fmt.pf ppf "@,aborts by reason:";
    List.iter
      (fun (r, n) -> Fmt.pf ppf " %a=%d" Engine.pp_abort_reason r n)
      s.aborted
  end;
  (match s.per_level with
  | [] | [ _ ] -> () (* a single level adds nothing over the totals *)
  | per_level ->
    Fmt.pf ppf "@,by level:";
    List.iter
      (fun l ->
        Fmt.pf ppf " %s=%d/%d" (L.slug l.level) l.l_committed l.l_aborted)
      per_level);
  Fmt.pf ppf "@]"

let to_json ?(extra = []) s =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b (Printf.sprintf "%S:%s" k v)
  in
  List.iter (fun (k, v) -> field k v) extra;
  field "taken_at" (Printf.sprintf "%.6f" s.taken_at);
  field "committed" (string_of_int s.committed);
  field "aborted_total" (string_of_int s.aborted_total);
  field "aborted"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map
             (fun (r, n) -> Printf.sprintf "%S:%d" (abort_reason_slug r) n)
             s.aborted)));
  field "retries" (string_of_int s.retries);
  field "giveups" (string_of_int s.giveups);
  field "deadlocks" (string_of_int s.deadlocks);
  field "stalls" (string_of_int s.stalls);
  field "lock_waits" (string_of_int s.lock_waits);
  field "wait_s" (Printf.sprintf "%.6f" (float s.wait_ns /. 1e9));
  field "wall_s" (Printf.sprintf "%.6f" s.wall_s);
  field "throughput_tps" (Printf.sprintf "%.1f" s.throughput);
  field "lat_p50_ms" (Printf.sprintf "%.4f" s.lat_p50_ms);
  field "lat_p90_ms" (Printf.sprintf "%.4f" s.lat_p90_ms);
  field "lat_p99_ms" (Printf.sprintf "%.4f" s.lat_p99_ms);
  field "lat_max_ms" (Printf.sprintf "%.4f" s.lat_max_ms);
  field "lat_mean_ms" (Printf.sprintf "%.4f" s.lat_mean_ms);
  field "exec_p50_ms" (Printf.sprintf "%.4f" s.exec_p50_ms);
  field "exec_p99_ms" (Printf.sprintf "%.4f" s.exec_p99_ms);
  field "exec_mean_ms" (Printf.sprintf "%.4f" s.exec_mean_ms);
  field "lock_wait_p50_ms" (Printf.sprintf "%.4f" s.lock_wait_p50_ms);
  field "lock_wait_p99_ms" (Printf.sprintf "%.4f" s.lock_wait_p99_ms);
  field "lock_wait_mean_ms" (Printf.sprintf "%.4f" s.lock_wait_mean_ms);
  field "retry_overhead_s" (Printf.sprintf "%.6f" s.retry_overhead_s);
  field "stripe_acquired" (string_of_int s.stripe_acquired);
  field "stripe_contended" (string_of_int s.stripe_contended);
  field "lock_stripe_contended" (Printf.sprintf "%.6f" s.lock_stripe_contended);
  field "faults_injected" (string_of_int s.faults_injected);
  field "deadline_exceeded" (string_of_int s.deadline_exceeded);
  field "watchdog_kicks" (string_of_int s.watchdog_kicks);
  field "certifier_aborts" (string_of_int s.certifier_aborts);
  field "per_level"
    (Printf.sprintf "{%s}"
       (String.concat ","
          (List.map
             (fun l ->
               Printf.sprintf "%S:{\"committed\":%d,\"aborted\":%d,\"doomed\":%d}"
                 (L.slug l.level) l.l_committed l.l_aborted l.l_doomed)
             s.per_level)));
  field "lat_hist"
    (Printf.sprintf "[%s]"
       (String.concat ","
          (Array.to_list (Array.map string_of_int s.lat_hist))));
  field "epoch" (string_of_int s.epoch);
  field "epoch_max_ns"
    (Printf.sprintf "[%s]"
       (String.concat ","
          (Array.to_list (Array.map string_of_int s.epoch_max_ns))));
  Buffer.add_char b '}';
  Buffer.contents b
