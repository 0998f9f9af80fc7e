(* Performance sections: bechamel micro-benchmarks of the engines and the
   §4.2 qualitative claims measured as workload statistics.

   The paper's §4.2 makes three measurable claims about Snapshot
   Isolation:
     1. a transaction "is never blocked attempting a read" — readers do
        not block writers and writers do not block readers;
     2. its optimistic approach has "a clear concurrency advantage for
        read-only transactions";
     3. "it probably isn't good for long-running update transactions
        competing with high-contention short transactions, since the
        long-running transactions are unlikely to be the first writer of
        everything they write, and so will probably be aborted".
   Each is checked below, 2PL SERIALIZABLE vs Snapshot Isolation. *)

open Bechamel

module L = Isolation.Level
module Executor = Runtime.Executor
module Generators = Workload.Generators

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let benchmark_and_print tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"perf" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square result with Some r -> r | None -> nan
      in
      rows := (name, ns, r2) :: !rows)
    results;
  List.iter
    (fun (name, ns, r2) ->
      Printf.printf "  %-44s %12.1f ns/run   (r^2 %.3f)\n" name ns r2)
    (List.sort compare !rows)

let run_workload ?(first_updater_wins = false) ?read_only level programs
    schedule ~accounts =
  let cfg =
    Executor.config
      ~initial:(Generators.bank_accounts accounts)
      ~first_updater_wins ?read_only
      (List.map (fun _ -> level) programs)
  in
  Executor.run cfg programs ~schedule

(* Claim 1 & 2: a long read-only audit against short transfers. *)
let readers_vs_writers () =
  Sections.header "PERF 1 - readers vs writers (SI never blocks reads, section 4.2)";
  let accounts = 24 and writers = 12 in
  let trials = 50 in
  let stats ?read_only label level =
    let blocked = ref 0 and deadlocks = ref 0 and aborted = ref 0 in
    for seed = 1 to trials do
      let rand = Random.State.make [| seed |] in
      let programs = Generators.read_heavy ~rand ~accounts ~writers in
      let schedule = Generators.random_schedule ~rand programs in
      let r = run_workload ?read_only level programs schedule ~accounts in
      blocked := !blocked + r.Executor.blocked_attempts;
      deadlocks := !deadlocks + r.Executor.deadlock_aborts;
      aborted :=
        !aborted
        + List.length
            (List.filter (fun (_, s) -> s <> Executor.Committed) r.Executor.statuses)
    done;
    Printf.printf "  %-34s blocked attempts %5d   deadlocks %3d   aborted txns %3d\n"
      label !blocked !deadlocks !aborted
  in
  Printf.printf
    "%d random schedules of 1 audit (%d reads) + %d transfers, per level:\n"
    trials accounts writers;
  List.iter
    (fun level -> stats (L.name level) level)
    [ L.Serializable; L.Repeatable_read; L.Read_committed; L.Snapshot ];
  (* The [BHG] Multiversion Mixed Method: 2PL writers, snapshot audit. *)
  stats "SERIALIZABLE + read-only audit"
    ~read_only:(true :: List.init writers (fun _ -> false))
    L.Serializable;
  Printf.printf
    "=> under 2PL the audit's read locks collide with every transfer;\n\
    \   under Snapshot Isolation nothing ever blocks (claim 1) and the\n\
    \   read-only audit always commits against its snapshot (claim 2).\n";
  (* Wall-clock cost of the same workload. *)
  let rand = Random.State.make [| 7 |] in
  let programs = Generators.read_heavy ~rand ~accounts ~writers in
  let schedule = Generators.random_schedule ~rand programs in
  let test level =
    Test.make
      ~name:("read-heavy/" ^ L.name level)
      (Staged.stage (fun () ->
           ignore (run_workload level programs schedule ~accounts)))
  in
  benchmark_and_print [ test L.Serializable; test L.Snapshot ]

(* Claim 3: a long update transaction against short contended updates. *)
let long_vs_short () =
  Sections.header
    "PERF 2 - long update transaction vs short contended updates (section 4.2)";
  let accounts = 8 and touches = 8 and writers = 10 in
  let trials = 100 in
  let stats ?first_updater_wins level =
    let long_aborted = ref 0 and blocked = ref 0 and any_aborted = ref 0 in
    for seed = 1 to trials do
      let rand = Random.State.make [| seed |] in
      let programs = Generators.long_vs_short ~rand ~accounts ~touches ~writers in
      let schedule = Generators.random_schedule ~rand programs in
      let r = run_workload ?first_updater_wins level programs schedule ~accounts in
      if List.assoc 1 r.Executor.statuses <> Executor.Committed then
        incr long_aborted;
      blocked := !blocked + r.Executor.blocked_attempts;
      any_aborted :=
        !any_aborted
        + List.length
            (List.filter (fun (_, s) -> s <> Executor.Committed) r.Executor.statuses)
    done;
    (!long_aborted, !blocked, !any_aborted)
  in
  Printf.printf
    "%d random schedules of 1 long update (%d writes) + %d short updates:\n"
    trials touches writers;
  List.iter
    (fun (label, level, fuw) ->
      let long_aborted, blocked, any = stats ?first_updater_wins:fuw level in
      Printf.printf
        "  %-32s long txn aborted %3d/%d   blocked attempts %6d   total aborts %4d\n"
        label long_aborted trials blocked any)
    [
      ("SERIALIZABLE (2PL)", L.Serializable, None);
      ("Snapshot (first-committer-wins)", L.Snapshot, None);
      ("Snapshot (first-updater-wins)", L.Snapshot, Some true);
      ("Serializable SI (validation)", L.Serializable_snapshot, None);
      ("Oracle Read Consistency", L.Oracle_read_consistency, None);
      ("Timestamp Ordering (T/O)", L.Timestamp_ordering, None);
    ];
  Printf.printf
    "=> the long transaction almost never survives First-Committer-Wins in\n\
    \   this regime (claim 3); under 2PL it survives by blocking everyone,\n\
    \   and under first-writer-wins locking it survives by losing updates.\n"

(* Raw engine operation costs. *)
let engine_microbench () =
  Sections.header "PERF 3 - engine operation costs (bechamel)";
  let accounts = 64 in
  let module P = Core.Program in
  let deposit i =
    P.make
      [ P.Read (Generators.account (i mod accounts));
        P.Write (Generators.account (i mod accounts),
                 P.read_plus (Generators.account (i mod accounts)) 1);
        P.Commit ]
  in
  let programs = List.init 16 deposit in
  let serial_schedule =
    List.concat (List.mapi (fun i p -> List.init (P.length p) (fun _ -> i + 1)) programs)
  in
  let test name level =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (run_workload level programs serial_schedule ~accounts)))
  in
  benchmark_and_print
    [
      test "16 serial updates/locking SERIALIZABLE" L.Serializable;
      test "16 serial updates/locking READ COMMITTED" L.Read_committed;
      test "16 serial updates/Snapshot Isolation" L.Snapshot;
      test "16 serial updates/Oracle Read Consistency" L.Oracle_read_consistency;
    ]

(* Index microbenchmarks: the B+ tree against the workloads the engines
   put on it. *)
let btree_microbench () =
  Sections.header "PERF 3b - B+ tree index operations (bechamel)";
  let n = 1_000 in
  let keys = Array.init n (fun i -> Printf.sprintf "k%06d" (i * 7919 mod n)) in
  let prebuilt = Storage.Btree.of_list (Array.to_list (Array.map (fun k -> (k, 1)) keys)) in
  benchmark_and_print
    [
      Test.make ~name:"btree/insert 1k"
        (Staged.stage (fun () ->
             let t = Storage.Btree.create () in
             Array.iter (fun k -> Storage.Btree.insert t k 1) keys));
      Test.make ~name:"btree/find 1k"
        (Staged.stage (fun () ->
             Array.iter (fun k -> ignore (Storage.Btree.find prebuilt k)) keys));
      Test.make ~name:"btree/successor 1k"
        (Staged.stage (fun () ->
             Array.iter
               (fun k -> ignore (Storage.Btree.successor prebuilt k))
               keys));
      Test.make ~name:"btree/range scan 10%"
        (Staged.stage (fun () ->
             ignore
               (Storage.Btree.range prebuilt ~lo:"k000100"
                  ~hi:(Some "k000200"))));
    ]

(* A figure-style series: contention vs writer count, 2PL vs SI. *)
let scaling_series () =
  Sections.header
    "PERF 4 - contention scaling series (blocked attempts / aborts vs writers)";
  let accounts = 16 and trials = 20 in
  Printf.printf
    "%d random schedules per point; 1 audit + N transfers over %d accounts\n\n"
    trials accounts;
  Printf.printf
    "  writers | 2PL blocked | 2PL deadlocks | SI blocked | SI FCW aborts\n";
  Printf.printf
    "  --------+-------------+---------------+------------+--------------\n";
  List.iter
    (fun writers ->
      let stats level =
        let blocked = ref 0 and deadlocks = ref 0 and aborts = ref 0 in
        for seed = 1 to trials do
          let rand = Random.State.make [| (writers * 1000) + seed |] in
          let programs = Generators.read_heavy ~rand ~accounts ~writers in
          let schedule = Generators.random_schedule ~rand programs in
          let r = run_workload level programs schedule ~accounts in
          blocked := !blocked + r.Executor.blocked_attempts;
          deadlocks := !deadlocks + r.Executor.deadlock_aborts;
          aborts :=
            !aborts
            + List.length
                (List.filter
                   (fun (_, s) -> s <> Executor.Committed)
                   r.Executor.statuses)
            - r.Executor.deadlock_aborts
        done;
        (!blocked, !deadlocks, !aborts)
      in
      let b2, d2, _ = stats L.Serializable in
      let bs, _, fcw = stats L.Snapshot in
      Printf.printf "  %7d | %11d | %13d | %10d | %13d\n" writers b2 d2 bs fcw)
    [ 2; 4; 8; 16; 24 ];
  Printf.printf
    "=> 2PL contention (blocking, deadlocks) grows with writer count while\n\
    \   SI never blocks; SI pays in First-Committer-Wins aborts instead,\n\
    \   which also grow with write-write contention.\n"

let all () =
  readers_vs_writers ();
  long_vs_short ();
  engine_microbench ();
  btree_microbench ();
  scaling_series ()
