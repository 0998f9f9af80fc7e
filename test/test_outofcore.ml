(* Tests for the out-of-core pipeline: the segmented on-disk WAL must be
   observationally equal to the in-memory log (including every crash
   image across segment boundaries), group commit must batch without
   losing durability, checkpoints must truncate without changing
   recovery, and the era-pruned certifier must keep the exact verdict. *)

module Store = Storage.Store
module Wal = Storage.Wal
module Recovery = Storage.Recovery
module Crash = Fault.Crash
module L = Isolation.Level
module Generators = Workload.Generators
module Pool = Runtime.Pool
module Certifier = Runtime.Certifier

let store_eq = Alcotest.testable Store.pp Store.equal
let record_eq = Alcotest.testable Wal.pp_record ( = )

let scratch =
  let n = ref 0 in
  fun name ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "isolab_test_%s_%d_%d" name (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir name f =
  let dir = scratch name in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A workload long enough that 512-byte segments rotate several times:
   [n] committed single-update transactions plus one in-flight loser. *)
let busy_records n =
  (* truthful before-images (all keys start at 0), or undo is unsound *)
  let last = Hashtbl.create 7 in
  let prev k = Option.value ~default:0 (Hashtbl.find_opt last k) in
  (* bind before [@]: its right operand would otherwise evaluate first
     and read the table empty — a genuinely unsound before-image the
     enumerator convicts *)
  let committed =
    List.concat
      (List.init n (fun i ->
           let t = i + 1 in
           let k = Printf.sprintf "acct_%02d" (i mod 7) in
           let before = prev k in
           Hashtbl.replace last k (i + 1);
           [
             Wal.Begin t;
             Wal.Update { t; k; before = Some before; after = Some (i + 1) };
             Wal.Commit t;
           ]))
  in
  committed
  @ [
      Wal.Begin (n + 1);
      Wal.Update
        { t = n + 1; k = "acct_00"; before = Some (prev "acct_00"); after = Some 99 };
    ]

let fill w records = List.iter (Wal.append w) records

(* {2 Mem-vs-disk differential}

   The disk backend's contract is observational equality with the
   in-memory log: same records, same committed/aborted/losers, and the
   same crash image at every prefix and torn point — in particular at
   the points that land exactly on segment rotation edges. *)

let test_disk_equals_mem () =
  with_dir "diff" (fun dir ->
      let records = busy_records 24 in
      let mem = Wal.create () in
      fill mem records;
      let disk = Wal.create ~dir ~segment_bytes:512 () in
      fill disk records;
      Wal.sync disk;
      let st = Wal.stats disk in
      Alcotest.(check bool) "segments rotated" true (st.Wal.w_segments > 1);
      Alcotest.(check int) "same length" (Wal.length mem) (Wal.length disk);
      Alcotest.(check (list record_eq))
        "same records" (Wal.records mem) (Wal.records disk);
      Alcotest.(check (list int))
        "same committed" (Wal.committed mem) (Wal.committed disk);
      Alcotest.(check (list int)) "same losers" (Wal.losers mem) (Wal.losers disk);
      let n = Wal.length disk in
      for i = 0 to n do
        let a = Wal.prefix mem i and b = Wal.prefix disk i in
        Alcotest.(check (list record_eq))
          (Printf.sprintf "prefix %d records" i)
          (Wal.records a) (Wal.records b);
        Alcotest.(check (list int))
          (Printf.sprintf "prefix %d losers" i)
          (Wal.losers a) (Wal.losers b)
      done;
      for i = 1 to n do
        let a = Wal.torn_prefix mem i and b = Wal.torn_prefix disk i in
        Alcotest.(check (list record_eq))
          (Printf.sprintf "torn %d intact" i)
          (Wal.intact a) (Wal.intact b);
        Alcotest.(check bool)
          (Printf.sprintf "torn %d tail present" i)
          true
          (Wal.torn_tail a = Wal.torn_tail b && Wal.torn_tail b <> None);
        Alcotest.(check (list int))
          (Printf.sprintf "torn %d losers" i)
          (Wal.losers a) (Wal.losers b)
      done)

let test_disk_crash_enumeration () =
  with_dir "enum" (fun dir ->
      let records = busy_records 16 in
      let initial =
        Store.of_list (List.init 7 (fun i -> (Printf.sprintf "acct_%02d" i, 0)))
      in
      let mem = Wal.create () in
      fill mem records;
      let disk = Wal.create ~dir ~segment_bytes:512 () in
      fill disk records;
      Wal.sync disk;
      Alcotest.(check bool) "crosses a rotation edge" true
        ((Wal.stats disk).Wal.w_segments > 1);
      let a = Crash.enumerate ~initial mem in
      let b = Crash.enumerate ~initial disk in
      Alcotest.(check int) "same points" a.Crash.points b.Crash.points;
      Alcotest.(check int) "same torn points" a.Crash.torn_points
        b.Crash.torn_points;
      Alcotest.(check bool) "mem log sound" true (Crash.ok a);
      Alcotest.(check bool) "disk log sound across rotations" true (Crash.ok b))

(* {2 Multiversion differential}

   The versioned record set (Vinstall/Vcommit/Watermark) through the
   disk backend: the same record sequence into an in-memory and a
   segmented on-disk log must produce identical losers and identical
   crash images — in particular across rotation edges — and both must
   recover chain-exactly to the same version store. *)

let busy_mv_records n =
  let committed =
    List.concat
      (List.init n (fun i ->
           let t = i + 1 in
           let k = Printf.sprintf "acct_%02d" (i mod 7) in
           [
             Wal.Begin t;
             Wal.Vinstall { t; k; value = Some (i + 1) };
             Wal.Vcommit { t; ts = i + 1 };
           ]))
  in
  (* a mid-run watermark advance, then an unstamped installer at the
     tail — the torn-Vcommit shape recovery must discard *)
  committed
  @ [
      Wal.Watermark (n / 2);
      Wal.Begin (n + 1);
      Wal.Vinstall { t = n + 1; k = "acct_00"; value = Some 999 };
    ]

let test_mv_disk_crash_images_equal_mem () =
  with_dir "mv_diff" (fun dir ->
      let records = busy_mv_records 24 in
      let initial = List.init 7 (fun i -> (Printf.sprintf "acct_%02d" i, 0)) in
      let mem = Wal.create () in
      fill mem records;
      let disk = Wal.create ~dir ~segment_bytes:512 () in
      fill disk records;
      Wal.sync disk;
      Alcotest.(check bool) "crosses a rotation edge" true
        ((Wal.stats disk).Wal.w_segments > 1);
      Alcotest.(check (list record_eq))
        "versioned records round-trip the codec" (Wal.records mem)
        (Wal.records disk);
      Alcotest.(check (list int)) "same losers" (Wal.losers mem)
        (Wal.losers disk);
      let a = Crash.enumerate_mv ~initial mem in
      let b = Crash.enumerate_mv ~initial disk in
      Alcotest.(check int) "same points" a.Crash.points b.Crash.points;
      Alcotest.(check int) "same torn points" a.Crash.torn_points
        b.Crash.torn_points;
      Alcotest.(check bool) "mem versioned log recovers everywhere" true
        (Crash.ok a);
      Alcotest.(check bool) "disk versioned log recovers everywhere" true
        (Crash.ok b);
      Alcotest.(check bool) "recovered chains identical" true
        (Storage.Version_store.equal
           (Recovery.recover_mv ~initial mem).Recovery.vstate
           (Recovery.recover_mv ~initial disk).Recovery.vstate))

(* {2 Checkpoint, truncation, reopen} *)

let test_checkpoint_truncates_and_recovers () =
  with_dir "ckpt" (fun dir ->
      let w = Wal.create ~dir ~segment_bytes:512 () in
      fill w (busy_records 24);
      (* settle the in-flight txn before the checkpoint image *)
      Wal.append w (Wal.Abort 25);
      let image = [ ("acct_00", 4); ("acct_01", 2) ] in
      Wal.checkpoint w ~image ~active:[];
      let before = Wal.stats w in
      Alcotest.(check int) "one checkpoint" 1 before.Wal.w_checkpoints;
      Alcotest.(check bool) "segments unlinked" true
        (before.Wal.w_truncated_segments > 0);
      Alcotest.(check int) "only the checkpoint survives" 1 (Wal.length w);
      (* post-checkpoint traffic replays on top of the image *)
      Wal.append w (Wal.Begin 40);
      Wal.append w
        (Wal.Update { t = 40; k = "acct_01"; before = Some 2; after = Some 7 });
      Wal.append w (Wal.Commit 40);
      Wal.sync w;
      let expect = Store.of_list [ ("acct_00", 4); ("acct_01", 7) ] in
      let initial = Store.of_list [] in
      Alcotest.(check store_eq) "replay starts from the image" expect
        (Recovery.ideal_state ~initial w);
      Alcotest.(check bool) "checkpointed log recovers everywhere" true
        (Crash.ok (Crash.enumerate ~initial w));
      (* reopening the directory sees exactly the live records *)
      let live = Wal.records w in
      Wal.close w;
      let re = Wal.load ~dir in
      Alcotest.(check (list record_eq)) "load after close" live (Wal.records re);
      Alcotest.(check store_eq) "reopened replay agrees" expect
        (Recovery.ideal_state ~initial re))

let test_load_after_close () =
  with_dir "reopen" (fun dir ->
      let records = busy_records 10 in
      let w = Wal.create ~dir ~segment_bytes:512 () in
      fill w records;
      Wal.close w;
      let re = Wal.load ~dir in
      Alcotest.(check (list record_eq)) "all records survive" records
        (Wal.records re);
      Alcotest.(check bool) "no torn tail on clean close" true
        (Wal.torn_tail re = None))

(* {2 Group commit} *)

let test_group_commit_concurrent () =
  with_dir "group" (fun dir ->
      let w = Wal.create ~dir ~segment_bytes:65536 ~group_commit:true () in
      let domains = 4 and per = 50 in
      let ds =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per do
                  let t = (d * per) + i in
                  Wal.append w (Wal.Begin t);
                  Wal.append w (Wal.Commit t);
                  Wal.sync w
                done))
      in
      List.iter Domain.join ds;
      let st = Wal.stats w in
      let total_syncs = domains * per in
      Alcotest.(check bool) "no more fsyncs than sync calls" true
        (st.Wal.w_syncs <= total_syncs && st.Wal.w_syncs > 0);
      Alcotest.(check int) "histogram accounts for every fsync" st.Wal.w_syncs
        (List.fold_left (fun acc (_, n) -> acc + n) 0 st.Wal.w_batch_hist);
      (* durability: every record survives a reopen *)
      Wal.close w;
      let re = Wal.load ~dir in
      Alcotest.(check int) "all records durable" (2 * domains * per)
        (Wal.length re);
      Alcotest.(check int) "every txn committed" (domains * per)
        (List.length (Wal.committed re)))

let test_per_commit_fsync_baseline () =
  with_dir "percommit" (fun dir ->
      let w = Wal.create ~dir ~group_commit:false () in
      for t = 1 to 20 do
        Wal.append w (Wal.Begin t);
        Wal.append w (Wal.Commit t);
        Wal.sync w
      done;
      let st = Wal.stats w in
      Alcotest.(check int) "one fsync per sync call" 20 st.Wal.w_syncs;
      Alcotest.(check bool) "all batches are singletons" true
        (List.for_all (fun (le, n) -> le > 1 || n = 20) st.Wal.w_batch_hist);
      Wal.close w)

(* {2 Era-pruned certifier: verdict is exact}

   The pruning invariant — a retired node can never gain another
   in-edge — means the online, aggressively-pruned verdict must equal
   the offline unpruned replay of the same trace. READ COMMITTED
   hotspot so real dependency cycles arise and the enforce path runs. *)

let test_pruned_verdict_equals_replay () =
  let accounts = 8 in
  let gen i =
    let p =
      Generators.stress_program Generators.Hotspot ~seed:11 ~accounts ~hot:2
        ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level:L.Read_committed p
  in
  let cfg =
    Pool.config ~workers:4
      ~initial:(Generators.bank_accounts accounts)
      ~think_us:0. ~seed:11 ~certify:true ~prune_every:8 ()
  in
  let r = Pool.run_for cfg ~txns:256 ~gen in
  let s = Option.get r.Pool.certifier in
  Alcotest.(check bool) "pruning actually ran" true
    (s.Certifier.prune_passes > 0 && s.Certifier.pruned_nodes > 0);
  let offline = Certifier.replay r.Pool.history in
  Alcotest.(check bool) "pruned online verdict = unpruned replay"
    offline.Certifier.serializable s.Certifier.serializable;
  let oracle = Option.get r.Pool.oracle in
  Alcotest.(check bool) "and = the post-run oracle"
    oracle.Runtime.Oracle.serializable s.Certifier.serializable

(* {2 Pool out-of-core smoke}

   keep_history:false end to end: no journal, no oracle, the exact
   verdict from the certifier, checkpoints truncating the disk WAL
   behind the run — and the surviving store still equal to the
   committed replay of what remains of the log. *)

let test_pool_out_of_core () =
  with_dir "pool_wal" (fun wal_dir ->
      with_dir "pool_spill" (fun spill_dir ->
          let accounts = 8 in
          let initial = Generators.bank_accounts accounts in
          let gen i =
            let p =
              Generators.stress_program Generators.Transfer ~seed:3 ~accounts
                ~hot:4 ~ops:4 ~index:i
            in
            Pool.job ~name:p.Core.Program.name ~level:L.Serializable p
          in
          let cfg =
            Pool.config ~workers:4 ~initial ~think_us:0. ~seed:3 ~certify:true
              ~wal_dir ~wal_segment_bytes:512 ~checkpoint_every:100
              ~keep_history:false ~spill_dir ()
          in
          let r = Pool.run_for cfg ~txns:500 ~gen in
          Alcotest.(check bool) "no journal kept" true (r.Pool.journal = []);
          Alcotest.(check (array string)) "the ignored spill_dir stays empty"
            [||] (Sys.readdir spill_dir);
          Alcotest.(check bool) "no oracle ran" true (r.Pool.oracle = None);
          let s = Option.get r.Pool.certifier in
          Alcotest.(check bool) "2PL run certified serializable" true
            s.Certifier.serializable;
          let wal = Option.get r.Pool.wal in
          let st = Wal.stats wal in
          Alcotest.(check bool) "checkpoints truncated the log" true
            (st.Wal.w_checkpoints > 0 && st.Wal.w_truncated_segments > 0);
          Alcotest.(check store_eq) "effects conserved through checkpoints"
            (Recovery.ideal_state ~initial:(Store.of_list initial) wal)
            (Store.of_list r.Pool.final)))

(* The multiversion pool out-of-core: Vcheckpoints truncating the
   versioned disk WAL behind a SNAPSHOT run with history off, engine
   vacuums feeding the certifier's version-order retirement — and the
   truncated log still enumerating clean from its Vcheckpoint base. *)
let test_pool_out_of_core_mv () =
  with_dir "mv_pool_wal" (fun wal_dir ->
      let accounts = 8 in
      let initial = Generators.bank_accounts accounts in
      let gen i =
        let p =
          Generators.stress_program Generators.Transfer ~seed:5 ~accounts
            ~hot:4 ~ops:4 ~index:i
        in
        Pool.job ~name:p.Core.Program.name ~level:L.Snapshot p
      in
      let cfg =
        Pool.config ~workers:4 ~initial ~think_us:0. ~seed:5 ~certify:true
          ~prune_every:64 ~wal_dir ~wal_segment_bytes:512
          ~checkpoint_every:100 ~keep_history:false ()
      in
      let r = Pool.run_for cfg ~txns:500 ~gen in
      Alcotest.(check bool) "no journal kept" true (r.Pool.journal = []);
      let wal = Option.get r.Pool.wal in
      let st = Wal.stats wal in
      Alcotest.(check bool) "Vcheckpoints truncated the versioned log"
        true
        (st.Wal.w_checkpoints > 0 && st.Wal.w_truncated_segments > 0);
      Alcotest.(check bool) "truncated log recovers at every image" true
        (Crash.ok (Crash.enumerate_mv ~sample:25 ~seed:5 ~initial wal));
      Alcotest.(check (list (pair string int)))
        "effects conserved through Vcheckpoints"
        (List.sort compare
           (Storage.Version_store.to_latest_list
              (Recovery.ideal_mv ~initial wal)))
        (List.sort compare r.Pool.final))

let suite =
  [
    Alcotest.test_case "disk log equals memory log at every crash image"
      `Quick test_disk_equals_mem;
    Alcotest.test_case "crash enumeration crosses segment boundaries" `Quick
      test_disk_crash_enumeration;
    Alcotest.test_case "checkpoint truncates and still recovers" `Quick
      test_checkpoint_truncates_and_recovers;
    Alcotest.test_case "load after clean close" `Quick test_load_after_close;
    Alcotest.test_case "group commit batches without losing records" `Quick
      test_group_commit_concurrent;
    Alcotest.test_case "per-commit fsync baseline" `Quick
      test_per_commit_fsync_baseline;
    Alcotest.test_case "era-pruned verdict equals unpruned replay" `Quick
      test_pruned_verdict_equals_replay;
    Alcotest.test_case "pool runs out-of-core with exact verdict" `Quick
      test_pool_out_of_core;
    Alcotest.test_case "MV crash images agree between memory and disk" `Quick
      test_mv_disk_crash_images_equal_mem;
    Alcotest.test_case "MV pool runs out-of-core through Vcheckpoints" `Quick
      test_pool_out_of_core_mv;
  ]
