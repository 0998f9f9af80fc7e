(* The striped execution path: stripe plans, the shared key-hash map,
   the sharded store and striped lock table, cross-stripe deadlock
   detection, oracle windowing, and the property the whole refactor is
   accountable to — striped runs produce well-formed histories with the
   same oracle verdict class as the coarse baseline at every level.

   Parallel assertions follow the suite's rule: only invariants that
   hold for every interleaving (verdicts, conservation, accounting).
   Probabilistic facts (a deadlock actually forming, READ COMMITTED
   actually losing an update) hunt over seeds. *)

module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Metrics = Runtime.Metrics
module Stripes = Runtime.Stripes
module Engine = Core.Engine
module Program = Core.Program
module Shard = Storage.Shard
module Store = Storage.Store
module LT = Locking.Lock_table
module Generators = Workload.Generators
module L = Isolation.Level
module Ph = Phenomena.Phenomenon

(* {2 Stripe plans} *)

let test_plan_all () =
  Alcotest.(check (list int))
    "All takes every key stripe plus the predicate stripe" [ 0; 1; 2; 3; 4 ]
    (Pool.stripe_plan ~stripes:4 Engine.All)

let test_plan_ordered_two_stripe () =
  (* The ordered two-stripe discipline for item writers: the key's
     stripe first, the predicate stripe last. *)
  let k = "acct_007" in
  let ks = Shard.of_key ~shards:8 k in
  Alcotest.(check (list int))
    "write plan = key stripe then predicate stripe" [ ks; 8 ]
    (Pool.stripe_plan ~stripes:8 (Engine.Keys { keys = [ k ]; pred = true }));
  (* A reader skips the predicate stripe entirely. *)
  Alcotest.(check (list int))
    "read plan = key stripe only" [ ks ]
    (Pool.stripe_plan ~stripes:8 (Engine.Keys { keys = [ k ]; pred = false }))

let test_plan_ascending_and_deduped () =
  (* Whatever the key order in the footprint, the plan is ascending and
     duplicate stripes collapse — the global acquisition order that
     makes the stripe mutexes deadlock-free. *)
  let keys = List.init 32 (fun i -> Printf.sprintf "k%d" i) in
  let plan =
    Pool.stripe_plan ~stripes:8 (Engine.Keys { keys = List.rev keys; pred = true })
  in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending" true (strictly_ascending plan);
  Alcotest.(check int)
    "predicate stripe is last" 8
    (List.nth plan (List.length plan - 1))

let test_plan_never_empty () =
  Alcotest.(check (list int))
    "empty footprint still holds one stripe" [ 0 ]
    (Pool.stripe_plan ~stripes:8 (Engine.Keys { keys = []; pred = false }))

let test_engine_footprints () =
  let e =
    Engine.create ~initial:[ ("a", 1); ("b", 2) ] ~predicates:[] ~stripes:8
      ~family:`Locking ()
  in
  Engine.begin_txn e 1 ~level:L.Serializable;
  (match Engine.footprint e 1 (Program.Read "a") with
  | Engine.Keys { keys = [ "a" ]; pred = false } -> ()
  | _ -> Alcotest.fail "read footprint should be its key, no predicate stripe");
  (match Engine.footprint e 1 (Program.Write ("a", Program.const 9)) with
  | Engine.Keys { keys = [ "a" ]; pred = true } -> ()
  | _ -> Alcotest.fail "write footprint should be its key plus predicates");
  (match Engine.footprint e 1 (Program.Scan Storage.Predicate.all) with
  | Engine.All -> ()
  | _ -> Alcotest.fail "scan footprint must be All");
  match Engine.footprint e 1 Program.Commit with
  | Engine.All -> ()
  | _ -> Alcotest.fail "commit footprint must be All"

(* {2 One hash to rule them} *)

let test_hash_agreement () =
  let shards = 8 in
  let stripes = Stripes.create shards in
  let store = Store.of_list ~shards [] in
  let lt = LT.create ~stripes:shards () in
  List.iter
    (fun k ->
      let expected = Shard.of_key ~shards k in
      Alcotest.(check int) ("stripes agree on " ^ k) expected
        (Stripes.stripe_of_key stripes k);
      Alcotest.(check int) ("store agrees on " ^ k) expected
        (Store.shard_of_key store k);
      Alcotest.(check int) ("lock table agrees on " ^ k) expected
        (LT.bucket_of_key lt k))
    (List.init 64 (fun i -> Printf.sprintf "acct_%03d" i))

(* {2 Sharded storage equivalence} *)

let test_sharded_store_equivalence () =
  let kvs = List.init 50 (fun i -> (Printf.sprintf "k%02d" i, i * 3)) in
  let s1 = Store.of_list ~shards:1 kvs in
  let s8 = Store.of_list ~shards:8 kvs in
  Store.delete s1 "k07";
  Store.delete s8 "k07";
  Store.put s1 "zz" 99;
  Store.put s8 "zz" 99;
  Alcotest.(check bool) "same contents" true (Store.equal s1 s8);
  Alcotest.(check
               (list (pair string int)))
    "scan merges shards in key order"
    (Store.to_list s1) (Store.to_list s8);
  List.iter
    (fun probe ->
      Alcotest.(check (option string))
        ("next_key_geq " ^ probe)
        (Store.next_key_geq s1 probe) (Store.next_key_geq s8 probe))
    [ "k00"; "k07"; "k25"; "k49"; "k99"; "a"; "zz" ]

(* {2 Striped lock table: single-threaded equivalence} *)

let test_striped_lock_table_equivalence () =
  let script lt =
    let acq owner req = LT.acquire lt ~owner ~tag:LT.Long req in
    let w k = LT.Write_item { k; before = None; after = Some 1 } in
    [
      acq 1 (LT.Read_item "a");
      acq 2 (w "a"); (* blocked by T1's read, same stripe *)
      acq 2 (w "b"); (* free: different key *)
      acq 1 (LT.Read_pred Storage.Predicate.all); (* pred vs T2's write on b *)
      acq 1 (w "a"); (* upgrade of T1's own read *)
    ]
  in
  let verdicts lt = List.map (function
      | LT.Granted -> None
      | LT.Conflict owners -> Some (List.sort compare owners))
      (script lt)
  in
  let lt1 = LT.create ~stripes:1 () in
  let lt8 = LT.create ~stripes:8 () in
  Alcotest.(check (list (option (list int))))
    "same verdicts at 1 and 8 stripes" (verdicts lt1) (verdicts lt8);
  let s1 = LT.stats lt1 and s8 = LT.stats lt8 in
  Alcotest.(check (list int))
    "same stats"
    [ s1.LT.grants; s1.LT.conflicts; s1.LT.upgrades ]
    [ s8.LT.grants; s8.LT.conflicts; s8.LT.upgrades ];
  LT.release_all lt8 ~owner:1;
  LT.release_all lt8 ~owner:2;
  Alcotest.(check bool) "striped table drains" true (LT.is_empty lt8)

(* {2 Cross-stripe deadlock detection} *)

(* Uniform transfers lock two random accounts in opposite orders, so
   wait cycles routinely span keys hashing to different stripes; the
   sharded detector must find those cycles and abort a victim. Any one
   seed may dodge the race, so hunt — but every run, deadlock or not,
   must end with all jobs committed and a pattern-free history. *)
let test_cross_stripe_deadlock () =
  let deadlocks_seen = ref 0 in
  List.iter
    (fun seed ->
      let n = 96 in
      let gen i =
        let p =
          Generators.stress_program Generators.Transfer ~seed ~accounts:16
            ~hot:16 ~ops:4 ~index:i
        in
        Pool.job ~name:p.Core.Program.name ~level:L.Serializable p
      in
      let cfg =
        Pool.config ~workers:4
          ~initial:(Generators.bank_accounts 16)
          ~think_us:50. ~seed ()
      in
      let r = Pool.run_n cfg ~txns:n ~gen in
      deadlocks_seen := !deadlocks_seen + r.Pool.metrics.Metrics.deadlocks;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: every job commits" seed)
        n r.Pool.metrics.Metrics.committed;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: pattern-free" seed)
        true
        (Oracle.pattern_free (Option.get r.Pool.oracle));
      (* Victim accounting: every deadlock the detector broke is an
         aborted attempt with the victim reason. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %d: victims = deadlocks" seed)
        r.Pool.metrics.Metrics.deadlocks
        (List.assoc_opt Core.Engine.Deadlock_victim r.Pool.metrics.Metrics.aborted
        |> Option.value ~default:0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: stripe acquisitions recorded" seed)
        true
        (r.Pool.metrics.Metrics.stripe_acquired > 0))
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool) "at least one deadlock broken across seeds" true
    (!deadlocks_seen > 0)

(* {2 Striped vs coarse: same verdict class at every level} *)

let run_mode ~coarse ~level ~seed =
  let mix =
    (* hot keys for the weak levels so anomalies have a chance to form *)
    match level with
    | L.Read_committed -> Generators.Hotspot
    | _ -> Generators.Transfer
  in
  let gen i =
    let p =
      Generators.stress_program mix ~seed ~accounts:8 ~hot:1 ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level p
  in
  let cfg =
    Pool.config ~workers:4 ~coarse
      ~initial:(Generators.bank_accounts 8)
      ~think_us:20. ~seed ()
  in
  Pool.run_n cfg ~txns:24 ~gen

(* The verdict class a level is accountable for. Striped and coarse runs
   see different interleavings, so per-seed witness counts differ; what
   must agree is the class: serializability-promising levels come back
   clean (2PL even pattern-free) in both modes, and every history is
   well-formed in both modes. *)
let check_class ~mode ~level ~seed (r : Pool.result) =
  let label fact = Printf.sprintf "%s seed %d (%s): %s" (L.name level) seed mode fact in
  Alcotest.(check bool) (label "well-formed") true
    ((Option.get r.oracle).Oracle.well_formed = Ok ());
  match level with
  | L.Serializable ->
    Alcotest.(check bool) (label "pattern-free") true (Oracle.pattern_free (Option.get r.oracle))
  | L.Serializable_snapshot | L.Timestamp_ordering ->
    Alcotest.(check bool) (label "clean") true (Oracle.clean (Option.get r.oracle))
  | L.Snapshot ->
    (* SI admits write skew in principle; the bank mixes cannot form it,
       so SI must come back clean here too. *)
    Alcotest.(check bool) (label "clean") true (Oracle.clean (Option.get r.oracle))
  | _ -> ()

let test_striped_serializable_20_seeds () =
  List.iter
    (fun seed ->
      let striped = run_mode ~coarse:false ~level:L.Serializable ~seed in
      check_class ~mode:"striped" ~level:L.Serializable ~seed striped;
      let coarse = run_mode ~coarse:true ~level:L.Serializable ~seed in
      check_class ~mode:"coarse" ~level:L.Serializable ~seed coarse)
    (List.init 20 (fun i -> i + 1))

let test_striped_other_levels () =
  List.iter
    (fun level ->
      List.iter
        (fun seed ->
          let striped = run_mode ~coarse:false ~level ~seed in
          check_class ~mode:"striped" ~level ~seed striped;
          let coarse = run_mode ~coarse:true ~level ~seed in
          check_class ~mode:"coarse" ~level ~seed coarse)
        [ 1; 2; 3; 4 ])
    [ L.Snapshot; L.Serializable_snapshot; L.Timestamp_ordering ]

(* READ COMMITTED keeps its anomalies under striping: over 20 seeds the
   striped runs must exhibit a lost update (P4) or an A5 read anomaly
   somewhere — weakening the level is the phenomenon the striping must
   not accidentally mask (nor fix). *)
let test_striped_read_committed_still_weak () =
  let found = ref false in
  List.iter
    (fun seed ->
      let r = run_mode ~coarse:false ~level:L.Read_committed ~seed in
      check_class ~mode:"striped" ~level:L.Read_committed ~seed r;
      if
        List.exists
          (fun p -> List.mem_assoc p (Option.get r.oracle).Oracle.phenomena)
          [ Ph.P4; Ph.A5A; Ph.A5B ]
      then found := true)
    (List.init 20 (fun i -> i + 1));
  Alcotest.(check bool) "P4/A5 observed under striping" true !found

(* {2 Oracle windowing} *)

let lost_update_among_bystanders =
  (* T1/T2 race a lost update on x; T3..T6 are independent committed
     bystanders that stretch the completion order past any small
     window. *)
  "r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1 r3[a=1] c3 r4[b=1] c4 \
   r5[d=1] c5 r6[e=1] c6"

let test_windowed_oracle_finds_anomaly () =
  let h = History.of_string lost_update_among_bystanders in
  let full = Oracle.check h in
  let windowed = Oracle.check ~window:2 h in
  Alcotest.(check (option int)) "window recorded" (Some 2) windowed.Oracle.window;
  Alcotest.(check bool) "full check sees P4" true
    (List.mem_assoc Ph.P4 full.Oracle.phenomena);
  Alcotest.(check bool) "windowed check still sees P4" true
    (List.mem_assoc Ph.P4 windowed.Oracle.phenomena);
  Alcotest.(check bool) "windowed verdict is dirty" false
    (Oracle.clean windowed);
  Alcotest.(check bool) "windowed serializability fails too" false
    windowed.Oracle.serializable;
  (* Totals describe the whole history even when checking is windowed. *)
  Alcotest.(check int) "txn total is the full history's" 6 windowed.Oracle.txns;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "JSON labels the verdict windowed" true
    (contains (Oracle.to_json windowed) "\"windowed\":2")

let test_windowed_oracle_clean_run () =
  (* A striped SERIALIZABLE run checked with a window stays clean, and
     the pool threads the window into the verdict. *)
  let gen i =
    let p =
      Generators.stress_program Generators.Transfer ~seed:5 ~accounts:8 ~hot:2
        ~ops:4 ~index:i
    in
    Pool.job ~name:p.Core.Program.name ~level:L.Serializable p
  in
  let cfg =
    Pool.config ~workers:4
      ~initial:(Generators.bank_accounts 8)
      ~think_us:20. ~oracle_window:8 ~seed:5 ()
  in
  let r = Pool.run_n cfg ~txns:48 ~gen in
  Alcotest.(check (option int)) "verdict is windowed" (Some 8)
    (Option.get r.Pool.oracle).Oracle.window;
  Alcotest.(check bool) "windowed striped run is clean" true
    (Oracle.clean (Option.get r.Pool.oracle))

let suite =
  [
    Alcotest.test_case "plan: All covers every stripe" `Quick test_plan_all;
    Alcotest.test_case "plan: ordered two-stripe acquisition" `Quick
      test_plan_ordered_two_stripe;
    Alcotest.test_case "plan: ascending and deduplicated" `Quick
      test_plan_ascending_and_deduped;
    Alcotest.test_case "plan: never empty" `Quick test_plan_never_empty;
    Alcotest.test_case "engine footprints localize point ops" `Quick
      test_engine_footprints;
    Alcotest.test_case "stripes, store and lock table share the key hash"
      `Quick test_hash_agreement;
    Alcotest.test_case "sharded store behaves like one btree" `Quick
      test_sharded_store_equivalence;
    Alcotest.test_case "striped lock table: single-thread equivalence" `Quick
      test_striped_lock_table_equivalence;
    Alcotest.test_case "cross-stripe deadlocks are found and broken" `Quick
      test_cross_stripe_deadlock;
    Alcotest.test_case "striped SERIALIZABLE clean over 20 seeds (+ coarse)"
      `Quick test_striped_serializable_20_seeds;
    Alcotest.test_case "striped SI/SSI/TO keep their verdict class" `Quick
      test_striped_other_levels;
    Alcotest.test_case "striped READ COMMITTED still exhibits P4/A5" `Quick
      test_striped_read_committed_still_weak;
    Alcotest.test_case "windowed oracle: anomalies stay visible" `Quick
      test_windowed_oracle_finds_anomaly;
    Alcotest.test_case "windowed oracle: clean striped run stays clean" `Quick
      test_windowed_oracle_clean_run;
  ]
