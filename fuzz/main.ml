(* Long-running property fuzzer: hammers the engines with random
   workloads and schedules, checking the guarantees each isolation level
   owes — far beyond the qcheck budgets in the test suite.

     dune exec fuzz/main.exe -- 100000     # number of seeds (default 20000)

   Checks, per seed:
   - every locking level never exhibits its Table 4 Not-Possible phenomena;
   - SERIALIZABLE under next-key locking stays conflict-serializable;
   - Snapshot Isolation obeys the snapshot-read rule and
     First-Committer-Wins (under both conflict-detection policies) and
     never blocks;
   - Serializable SI histories are one-copy serializable;
   - timestamp-ordering histories are serializable and deadlock-free. *)

module P = Core.Program
module L = Isolation.Level
module Spec = Isolation.Spec
module Executor = Runtime.Executor
module Generators = Workload.Generators

let keys = [ "x"; "y"; "z" ]
let initial = [ ("x", 10); ("y", 20); ("z", 30) ]

let workload seed =
  let rand = Random.State.make [| seed |] in
  let txns = 2 + Random.State.int rand 2 in
  let programs = Generators.random_programs ~rand ~keys ~txns ~ops:4 () in
  let schedule = Generators.random_schedule ~rand programs in
  (programs, schedule)

let run level ?(fuw = false) ?(nk = false) (programs, schedule) =
  let cfg =
    Executor.config ~initial
      ~predicates:[ Storage.Predicate.all ]
      ~first_updater_wins:fuw ~next_key_locking:nk
      (List.map (fun _ -> level) programs)
  in
  Executor.run cfg programs ~schedule

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20_000 in
  let fails = ref 0 in
  let report fmt = Format.kasprintf (fun s -> incr fails; print_endline s) fmt in
  for seed = 0 to n - 1 do
    let w = workload seed in
    List.iter
      (fun level ->
        let r = run level w in
        List.iter
          (fun p ->
            if Phenomena.Detect.occurs p r.Executor.history then
              report "FORBIDDEN %s exhibits %s (seed %d)" (L.name level)
                (Phenomena.Phenomenon.name p) seed)
          (Spec.forbidden level))
      Locking.Protocol.locking_levels;
    let r = run L.Serializable ~nk:true w in
    if not (History.Conflict.is_serializable r.Executor.history) then
      report "NEXT-KEY SERIALIZABLE not serializable (seed %d)" seed;
    List.iter
      (fun fuw ->
        let r = run L.Snapshot ~fuw w in
        if
          not
            (History.Mv.snapshot_reads_respected r.Executor.history
            && History.Mv.first_committer_wins_respected r.Executor.history)
        then report "SI rules violated (fuw %b, seed %d)" fuw seed)
      [ false; true ];
    let r = run L.Snapshot w in
    if r.Executor.blocked_attempts > 0 then
      report "SI blocked (seed %d)" seed;
    let r = run L.Serializable_snapshot w in
    if not (History.Mv.is_one_copy_serializable r.Executor.history) then
      report "SSI not one-copy serializable (seed %d)" seed;
    let r = run L.Timestamp_ordering w in
    if
      not
        (History.Conflict.is_serializable r.Executor.history
        && r.Executor.deadlock_aborts = 0)
    then report "T/O not serializable or deadlocked (seed %d)" seed;
    ()
  done;
  Printf.printf "fuzz: %d seeds, %d failures\n" n !fails;
  exit (if !fails = 0 then 0 else 1)
