(* Property-based tests over random workloads and schedules: the
   fundamental serialization theorem for the two-phase locking level, the
   per-level forbidden-phenomena guarantees of Table 4, Snapshot
   Isolation's two defining rules, and end-to-end determinism. *)

module P = Core.Program
module L = Isolation.Level
module Spec = Isolation.Spec
module Executor = Runtime.Executor
module Generators = Workload.Generators
module Predicate = Storage.Predicate

let keys = [ "x"; "y"; "z" ]
let initial = [ ("x", 10); ("y", 20); ("z", 30) ]

(* Deterministic pseudo-random workload from a qcheck-supplied seed. *)
let workload_of_seed ?allow_abort seed =
  let rand = Random.State.make [| seed |] in
  let txns = 2 + Random.State.int rand 2 in
  let programs =
    Generators.random_programs ?allow_abort ~rand ~keys ~txns ~ops:4 ()
  in
  let schedule = Generators.random_schedule ~rand programs in
  (programs, schedule)

let run_at level ?(predicates = [ Predicate.all ]) ?first_updater_wins
    (programs, schedule) =
  let cfg =
    Executor.config ~initial ~predicates ?first_updater_wins
      (List.map (fun _ -> level) programs)
  in
  Executor.run cfg programs ~schedule

let seed_gen = QCheck2.Gen.(0 -- 1_000_000)

(* The fundamental serialization theorem: every history produced by
   well-formed two-phase locking (SERIALIZABLE) is conflict-serializable
   and exhibits no phenomenon at all. *)
let prop_2pl_serializable =
  Support.qtest "2PL histories are serializable" ~count:300 seed_gen
    (fun seed ->
      let r = run_at L.Serializable (workload_of_seed seed) in
      History.Conflict.is_serializable r.Executor.history
      && Phenomena.Detect.exhibited r.Executor.history = [])

(* Each locking level never exhibits its Table-4 Not-Possible phenomena
   (the single-version detectors are exact on locking traces). *)
let prop_locking_levels_respect_forbidden =
  Support.qtest "locking levels respect their forbidden sets" ~count:200
    QCheck2.Gen.(pair seed_gen (oneofl Locking.Protocol.locking_levels))
    (fun (seed, level) ->
      let r = run_at level (workload_of_seed seed) in
      List.for_all
        (fun p -> not (Phenomena.Detect.occurs p r.Executor.history))
        (Spec.forbidden level))

(* Snapshot Isolation's two rules hold on every SI trace, under both
   conflict-detection policies. *)
let prop_si_rules =
  Support.qtest "SI traces obey snapshot reads and FCW" ~count:300
    QCheck2.Gen.(pair seed_gen bool)
    (fun (seed, fuw) ->
      let r = run_at L.Snapshot ~first_updater_wins:fuw (workload_of_seed seed) in
      History.Mv.snapshot_reads_respected r.Executor.history
      && History.Mv.first_committer_wins_respected r.Executor.history)

(* SI reads are repeatable: a transaction that never writes a key sees a
   single value for it throughout. *)
let prop_si_repeatable_reads =
  Support.qtest "SI reads are repeatable" ~count:300 seed_gen
    (fun seed ->
      let programs, schedule = workload_of_seed seed in
      let r = run_at L.Snapshot (programs, schedule) in
      List.for_all
        (fun (tid, env) ->
          let wrote k =
            List.exists
              (function
                | History.Action.Write w -> w.History.Action.wt = tid && w.History.Action.wk = k
                | _ -> false)
              r.Executor.history
          in
          List.for_all
            (fun k ->
              wrote k
              ||
              match
                List.filter_map
                  (fun (k', v) -> if k' = k then Some v else None)
                  env.P.reads
              with
              | [] | [ _ ] -> true
              | first :: rest -> List.for_all (( = ) first) rest)
            keys)
        r.Executor.envs)

(* Oracle Read Consistency also precludes dirty reads: every value read
   was committed at some point (or the reader's own). *)
let prop_oracle_no_dirty_reads =
  Support.qtest "Read Consistency never reads uncommitted data" ~count:200
    seed_gen
    (fun seed ->
      let r = run_at L.Oracle_read_consistency (workload_of_seed seed) in
      (* On MV traces, a dirty read would be a read of a version whose
         writer had not committed by the read's position. *)
      let arr = Array.of_list r.Executor.history in
      Array.to_list arr
      |> List.mapi (fun i a -> (i, a))
      |> List.for_all (fun (i, a) ->
             match a with
             | History.Action.Read rd -> (
               match rd.History.Action.rver with
               | None | Some 0 -> true
               | Some w ->
                 w = rd.History.Action.rt
                 || Array.exists
                      (function
                        | History.Action.Commit t -> t = w
                        | _ -> false)
                      (Array.sub arr 0 i))
             | _ -> true))

(* §4.2's headline claim as a universal property: nothing ever blocks
   under Snapshot Isolation with First-Committer-Wins — not reads, not
   writes, not commits. *)
let prop_si_never_blocks =
  Support.qtest "Snapshot Isolation never blocks" ~count:300 seed_gen
    (fun seed ->
      let r = run_at L.Snapshot (workload_of_seed seed) in
      r.Executor.blocked_attempts = 0 && r.Executor.deadlock_aborts = 0)

(* Phantom guards are interchangeable at SERIALIZABLE: under either
   predicate locks or next-key locking, a committed transaction's repeated
   scans of a (range) predicate always agree. *)
let prop_serializable_scans_stable =
  Support.qtest "SERIALIZABLE rescans agree under both phantom guards"
    ~count:150
    QCheck2.Gen.(pair seed_gen bool)
    (fun (seed, next_key) ->
      let rand = Random.State.make [| seed |] in
      let emp = Predicate.key_prefix ~name:"Emp" "emp_" in
      let scanner =
        P.make [ P.Scan emp; P.Read "x"; P.Scan emp; P.Commit ]
      in
      let writers =
        List.init 2 (fun i ->
            let k = Printf.sprintf "emp_%c" (Char.chr (Char.code 'a' + i)) in
            match Random.State.int rand 3 with
            | 0 -> P.make [ P.Insert (k, P.const 1); P.Commit ]
            | 1 -> P.make [ P.Delete k; P.Commit ]
            | _ -> P.make [ P.Write ("x", P.const (Random.State.int rand 50)); P.Commit ])
      in
      let programs = scanner :: writers in
      let schedule = Generators.random_schedule ~rand programs in
      let cfg =
        Executor.config
          ~initial:[ ("emp_a", 1); ("x", 0); ("zz_sentinel", 0) ]
          ~predicates:[ emp ] ~next_key_locking:next_key
          (List.map (fun _ -> L.Serializable) programs)
      in
      let r = Executor.run cfg programs ~schedule in
      (not (List.mem_assoc 1 r.Executor.statuses
            && List.assoc 1 r.Executor.statuses = Executor.Committed))
      || not (Workload.Scenario.unrepeatable_scan r 1 "Emp"))

(* The extension level: every history committed under Serializable SI is
   one-copy serializable (the whole point of commit-time validation). *)
let prop_ssi_one_copy_serializable =
  Support.qtest "Serializable SI histories are one-copy serializable"
    ~count:300 seed_gen
    (fun seed ->
      let r = run_at L.Serializable_snapshot (workload_of_seed seed) in
      History.Mv.is_one_copy_serializable r.Executor.history
      && History.Mv.snapshot_reads_respected r.Executor.history
      && History.Mv.first_committer_wins_respected r.Executor.history)

(* Money conservation: transfer-only workloads preserve the total balance
   under SERIALIZABLE (2PL + rollback) and under Snapshot Isolation
   (First-Committer-Wins), whatever the schedule. *)
let transfer_workload seed =
  let rand = Random.State.make [| seed |] in
  let accounts = 4 in
  let programs =
    List.init 3 (fun _ ->
        Generators.transfer_program ~rand ~accounts ~amount:(1 + Random.State.int rand 9))
  in
  let schedule = Generators.random_schedule ~rand programs in
  (Generators.bank_accounts accounts, programs, schedule)

let total final = List.fold_left (fun acc (_, v) -> acc + v) 0 final

let prop_conservation =
  Support.qtest "transfers conserve the total balance (SER and SI)" ~count:300
    QCheck2.Gen.(pair seed_gen bool)
    (fun (seed, si) ->
      let initial, programs, schedule = transfer_workload seed in
      let level = if si then L.Snapshot else L.Serializable in
      let cfg =
        Executor.config ~initial (List.map (fun _ -> level) programs)
      in
      let r = Executor.run cfg programs ~schedule in
      total r.Executor.final = total initial)

(* ...and READ COMMITTED does not: some schedule loses an update. *)
let test_rc_breaks_conservation () =
  let exception Found in
  try
    for seed = 0 to 500 do
      let initial, programs, schedule = transfer_workload seed in
      let cfg =
        Executor.config ~initial (List.map (fun _ -> L.Read_committed) programs)
      in
      let r = Executor.run cfg programs ~schedule in
      if total r.Executor.final <> total initial then raise Found
    done;
    Alcotest.fail "expected READ COMMITTED to lose an update somewhere"
  with Found -> ()

(* End-to-end determinism: identical inputs yield identical histories,
   states and statuses, for both engine families. *)
let prop_determinism =
  Support.qtest "execution is deterministic" ~count:200
    QCheck2.Gen.(pair seed_gen bool)
    (fun (seed, multiversion) ->
      let level = if multiversion then L.Snapshot else L.Repeatable_read in
      let w = workload_of_seed seed in
      let a = run_at level w and b = run_at level w in
      a.Executor.history = b.Executor.history
      && a.Executor.final = b.Executor.final
      && a.Executor.statuses = b.Executor.statuses)

(* Aborted transactions leave no trace in the final state: running with
   user aborts is equivalent to running only the committed programs'
   effects (checked via the locking engine's WAL-ideal state). *)
let prop_schedules_are_merges =
  Support.qtest "random schedules are merges of attempt sequences" ~count:200
    seed_gen
    (fun seed ->
      let programs, schedule = workload_of_seed seed in
      let counts = Array.make (List.length programs) 0 in
      List.iter (fun t -> counts.(t - 1) <- counts.(t - 1) + 1) schedule;
      List.for_all2
        (fun p c -> c = P.length p + 1)
        programs (Array.to_list counts))

(* Serial executions at any level produce serializable histories with no
   anomalies — levels only differ under concurrency. *)
let prop_serial_always_clean =
  Support.qtest "serial executions are clean at every level" ~count:150
    QCheck2.Gen.(pair seed_gen (oneofl L.all))
    (fun (seed, level) ->
      let programs, _ = workload_of_seed ~allow_abort:false seed in
      let cfg =
        Executor.config ~initial ~predicates:[ Predicate.all ]
          (List.map (fun _ -> level) programs)
      in
      let r = Executor.run_serial cfg programs in
      let sv =
        if History.Mv.is_mv r.Executor.history then
          History.Mv.si_to_single_version r.Executor.history
        else r.Executor.history
      in
      History.Conflict.is_serializable sv)

let suite =
  [
    prop_2pl_serializable;
    prop_locking_levels_respect_forbidden;
    prop_si_rules;
    prop_si_repeatable_reads;
    prop_oracle_no_dirty_reads;
    prop_ssi_one_copy_serializable;
    prop_si_never_blocks;
    prop_serializable_scans_stable;
    prop_conservation;
    Alcotest.test_case "READ COMMITTED loses an update somewhere" `Quick
      test_rc_breaks_conservation;
    prop_determinism;
    prop_schedules_are_merges;
    prop_serial_always_clean;
  ]
