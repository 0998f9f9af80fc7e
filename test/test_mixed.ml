(* The mixed-level correctness criterion.

   Each transaction declares its own isolation level; the certifier must
   protect it from exactly the phenomena that level forbids (see "On the
   Complexity of Checking Mixed Isolation Levels for SQL Transactions").
   Directed witness histories pin the victim-relative judgement — an RC
   reader beside writers tolerates P2/A5A read skew, an SI pair
   tolerates A5B write skew, while RR / SSI / SERIALIZABLE victims in
   the same cycles are caught — and property tests over mixed pool runs
   hold the online certifier to agreement with the post-run mixed
   oracle. Single-level behaviour is regression-pinned: the default
   criterion's verdicts and the all-SERIALIZABLE mixed run must match
   the old serializability answers exactly. *)

module Pool = Runtime.Pool
module Oracle = Runtime.Oracle
module Cert = Runtime.Certifier
module Mix = Workload.Mix
module Lattice = Isolation.Lattice
module Spec = Isolation.Spec
module L = Isolation.Level
module P = Phenomena.Phenomenon

let h = History.of_string

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* {2 Lattice.strengthen} *)

let lvl = Alcotest.testable (Fmt.of_to_string L.name) ( = )

let test_strengthen_identity () =
  List.iter
    (fun l ->
      Alcotest.check lvl
        (L.name l ^ " maps to itself in its own family")
        l
        (Lattice.strengthen l (L.family l)))
    L.all

let test_strengthen_cross_family () =
  Alcotest.check lvl "SI on the locking engine runs SERIALIZABLE"
    L.Serializable
    (Lattice.strengthen L.Snapshot `Locking);
  Alcotest.check lvl "RC on the MV engine runs ORC"
    L.Oracle_read_consistency
    (Lattice.strengthen L.Read_committed `Mv);
  Alcotest.check lvl "RR on the MV engine runs SSI (Snapshot admits A5B)"
    L.Serializable_snapshot
    (Lattice.strengthen L.Repeatable_read `Mv);
  Alcotest.check lvl "everything on the T/O engine runs T/O"
    L.Timestamp_ordering
    (Lattice.strengthen L.Degree_0 `Timestamp)

let test_strengthen_preserves_contract () =
  (* The defining property: nothing the declared level forbids may
     become possible at the execution level. *)
  List.iter
    (fun declared ->
      List.iter
        (fun fam ->
          let exec = Lattice.strengthen declared fam in
          List.iter
            (fun p ->
              if Spec.table4 declared p = Spec.Not_possible then
                Alcotest.(check bool)
                  (Printf.sprintf "%s -> %s keeps %s forbidden"
                     (L.name declared) (L.name exec) (P.name p))
                  true
                  (Spec.table4 exec p = Spec.Not_possible))
            P.all)
        [ `Locking; `Mv; `Timestamp ])
    L.all

(* {2 Workload.Mix} *)

let test_mix_parse () =
  (match Mix.parse "rc=3,si=1,serializable=0.5" with
  | Ok m ->
    Alcotest.(check int) "three entries" 3 (List.length m);
    Alcotest.check lvl "first is RC" L.Read_committed (fst (List.nth m 0));
    Alcotest.(check (float 1e-9)) "weight parsed" 0.5 (snd (List.nth m 2))
  | Error e -> Alcotest.fail e);
  (match Mix.parse "rc,si" with
  | Ok m ->
    List.iter
      (fun (_, w) -> Alcotest.(check (float 1e-9)) "default weight 1" 1.0 w)
      m
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Mix.parse bad with
      | Ok _ -> Alcotest.fail ("accepted bad mix " ^ bad)
      | Error msg ->
        Alcotest.(check bool) "error names the grammar" true
          (contains ~affix:"level[=weight]" msg))
    [ ""; "nope"; "rc=-1"; "rc=0"; "rc=x"; "rc,,si" ]

let test_mix_family_plurality () =
  let m mix = match Mix.parse mix with Ok m -> m | Error e -> failwith e in
  Alcotest.(check bool) "RC-heavy mix is locking" true
    (Mix.family (m "rc=70,si=25,serializable=5") = `Locking);
  Alcotest.(check bool) "SI-heavy mix is MV" true
    (Mix.family (m "rc=1,si=3") = `Mv);
  Alcotest.(check bool) "tie breaks toward locking" true
    (Mix.family (m "rc=1,si=1") = `Locking);
  Alcotest.(check bool) "T/O plurality wins" true
    (Mix.family (m "to=5,rc=1") = `Timestamp)

let test_mix_draw_deterministic () =
  let m =
    match Mix.parse "rc=70,si=25,serializable=5" with
    | Ok m -> m
    | Error e -> failwith e
  in
  for i = 0 to 99 do
    Alcotest.check lvl "draw is a pure function of (seed, index)"
      (Mix.draw m ~seed:42 ~index:i)
      (Mix.draw m ~seed:42 ~index:i)
  done;
  (* The draw follows the weights at least roughly: a 70% component must
     dominate a 5% one over a few hundred indices. *)
  let count l =
    let n = ref 0 in
    for i = 0 to 399 do
      if Mix.draw m ~seed:7 ~index:i = l then incr n
    done;
    !n
  in
  Alcotest.(check bool) "rc dominates serializable" true
    (count L.Read_committed > count L.Serializable)

(* {2 Directed witness histories (replay)} *)

(* Read skew (A5A): T1 reads x, T2 overwrites x and y and commits, T1
   then reads the new y — wr T2->T1 closes against rw T1->T2. The cycle
   classifies as {P2, A5A}. *)
let read_skew = "r1[x=50] w2[x=10] w2[y=90] c2 r1[y=90] c1"

let test_rc_reader_tolerates_read_skew () =
  let s =
    Cert.replay ~criterion:Cert.Mixed
      ~levels:[ (1, L.Read_committed); (2, L.Read_committed) ]
      (h read_skew)
  in
  Alcotest.(check bool) "not serializable" false s.Cert.serializable;
  Alcotest.(check bool) "but mixed-ok: RC admits P2/A5A" true s.Cert.mixed_ok;
  Alcotest.(check int) "tolerated online" 1 s.Cert.tolerated;
  Alcotest.(check int) "no harm on the committed projection" 0 s.Cert.harmed;
  Alcotest.(check bool) "RC x A5A attributed in the matrix" true
    (List.mem_assoc (L.Read_committed, P.A5A) s.Cert.matrix)

let test_rr_reader_caught_on_read_skew () =
  let s =
    Cert.replay ~mode:Cert.Enforce ~criterion:Cert.Mixed
      ~levels:[ (1, L.Repeatable_read); (2, L.Read_committed) ]
      (h read_skew)
  in
  Alcotest.(check int) "the RR reader is doomed" 1 s.Cert.dooms;
  Alcotest.(check int) "nothing tolerated" 0 s.Cert.tolerated;
  match s.Cert.violations with
  | [ v ] ->
    Alcotest.(check (option int)) "T1 is the victim" (Some 1) v.Cert.doomed;
    Alcotest.(check (option string))
      "provenance names the victim's level" (Some "repeatable_read")
      v.Cert.victim_level;
    Alcotest.(check bool) "classified as read skew" true
      (List.mem "A5A" v.Cert.classes)
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

(* Write skew (A5B) on the single-version rules: both read under the
   initial era, then write each other's key — rw both ways. *)
let write_skew = "r1[x=100] r2[y=100] w1[y=60] w2[x=60] c1 c2"

let test_si_pair_tolerates_write_skew () =
  let s =
    Cert.replay ~criterion:Cert.Mixed
      ~levels:[ (1, L.Snapshot); (2, L.Snapshot) ]
      (h write_skew)
  in
  Alcotest.(check bool) "not serializable" false s.Cert.serializable;
  Alcotest.(check bool) "mixed-ok: SI admits A5B" true s.Cert.mixed_ok;
  Alcotest.(check bool) "SI x A5B attributed" true
    (List.mem_assoc (L.Snapshot, P.A5B) s.Cert.matrix);
  Alcotest.(check bool) "P2 never attributed to SI (it is forbidden)" false
    (List.mem_assoc (L.Snapshot, P.P2) s.Cert.matrix)

let test_ssi_victim_caught_on_write_skew () =
  let s =
    Cert.replay ~mode:Cert.Enforce ~criterion:Cert.Mixed
      ~levels:[ (1, L.Serializable_snapshot); (2, L.Serializable_snapshot) ]
      (h write_skew)
  in
  Alcotest.(check int) "an SSI victim is doomed" 1 s.Cert.dooms;
  Alcotest.(check int) "nothing tolerated" 0 s.Cert.tolerated

let test_serializable_victim_special_case () =
  (* One SERIALIZABLE member in an otherwise weak cycle: it forbids
     everything, so any cycle through it harms it — full
     serializability as the SERIALIZABLE-victim special case. *)
  let s =
    Cert.replay ~mode:Cert.Enforce ~criterion:Cert.Mixed
      ~levels:[ (1, L.Serializable); (2, L.Read_uncommitted) ]
      (h write_skew)
  in
  Alcotest.(check int) "the SERIALIZABLE member is doomed" 1 s.Cert.dooms;
  match s.Cert.violations with
  | [ v ] ->
    Alcotest.(check (option int)) "T1, not the weak T2" (Some 1) v.Cert.doomed
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

let test_untagged_defaults_to_serializable () =
  let s =
    Cert.replay ~mode:Cert.Enforce ~criterion:Cert.Mixed (h write_skew)
  in
  Alcotest.(check int) "untagged transactions forbid everything" 1
    s.Cert.dooms

(* A harmed member that commits before the cycle closes cannot be
   aborted; the certifier dooms a live member in its stead (the
   defensive abort) and the provenance still names the protected
   party's level. In [read_skew] the closing edge lands at T1's second
   read, after the RR-declared T2 has committed. *)
let test_defensive_abort_protects_committed_victim () =
  let s =
    Cert.replay ~mode:Cert.Enforce ~criterion:Cert.Mixed
      ~levels:[ (1, L.Read_committed); (2, L.Repeatable_read) ]
      (h read_skew)
  in
  Alcotest.(check int) "one doom" 1 s.Cert.dooms;
  Alcotest.(check int) "no miss" 0 s.Cert.misses;
  match s.Cert.violations with
  | [ v ] ->
    Alcotest.(check (option int))
      "the live RC actor is doomed in the committed victim's stead" (Some 1)
      v.Cert.doomed;
    Alcotest.(check (option string))
      "provenance names the protected member's level"
      (Some "repeatable_read") v.Cert.victim_level
  | vs -> Alcotest.fail (Printf.sprintf "%d violations" (List.length vs))

(* {2 Property: 20 seeds of mixed pool traffic}

   Certified mixed runs across seeds: the online certifier's finalized
   [mixed_ok] must agree with the post-run mixed oracle's committed-
   projection replay, and certifier aborts may only strike cycles that
   harmed someone (no aborts in a run whose oracle saw no harm and no
   violation). *)

let test_mixed_pool_agrees_with_oracle () =
  let mix =
    match Mix.parse "rc=70,si=25,serializable=5" with
    | Ok m -> m
    | Error e -> failwith e
  in
  let fam = Mix.family mix in
  for seed = 1 to 20 do
    let gen i =
      let declared = Mix.draw mix ~seed ~index:i in
      let p =
        Workload.Generators.stress_program Workload.Generators.Hotspot ~seed
          ~accounts:8 ~hot:2 ~ops:5 ~index:i
      in
      Pool.job ~name:p.Core.Program.name ~declared
        ~level:(Lattice.strengthen declared fam)
        p
    in
    let cfg =
      Pool.config ~workers:4
        ~initial:(Workload.Generators.bank_accounts 8)
        ~think_us:0. ~seed ~certify:true ~criterion:Cert.Mixed ~family:fam ()
    in
    let r = Pool.run_n cfg ~txns:64 ~gen in
    let cert =
      match r.Pool.certifier with
      | Some s -> s
      | None -> Alcotest.fail "certified run lost its summary"
    in
    let mixed =
      match r.Pool.mixed with
      | Some m -> m
      | None -> Alcotest.fail "mixed criterion run lost its mixed verdict"
    in
    Alcotest.(check bool)
      (Printf.sprintf
         "seed %d: online mixed_ok agrees with the post-run oracle replay"
         seed)
      cert.Cert.mixed_ok
      (mixed.Oracle.m_harmed = 0);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no forbidden-for-victim attribution" seed)
      true
      (mixed.Oracle.m_violations = []);
    (* A SERIALIZABLE victim permits nothing, so the permitted anomaly x
       victim-level matrix has an empty SERIALIZABLE column. *)
    let serializable_cells m =
      List.filter (fun ((l, _), _) -> l = L.Serializable) m
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no permitted anomaly at SERIALIZABLE" seed)
      0
      (List.length
         (serializable_cells cert.Cert.matrix
         @ serializable_cells mixed.Oracle.m_matrix));
    (* Aborts are victim-relative: a run whose cycles all harmed nobody
       must not have certifier-doomed anyone. *)
    if cert.Cert.dooms > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: dooms only on harm" seed)
        true
        (List.exists
           (fun v -> v.Cert.doomed <> None && v.Cert.victim_level <> None)
           cert.Cert.violations)
  done

(* {2 Single-level regression: the default criterion is untouched} *)

let test_default_criterion_unchanged () =
  List.iter
    (fun hist ->
      let old = Cert.replay (h hist) in
      let tagged =
        Cert.replay ~criterion:Cert.Mixed
          ~levels:(List.map (fun t -> (t, L.Serializable)) [ 1; 2; 3 ])
          (h hist)
      in
      Alcotest.(check bool) "criterion defaults to serializability" true
        (old.Cert.criterion = Cert.Serializability);
      Alcotest.(check bool) "mixed_ok mirrors serializable by default"
        old.Cert.serializable old.Cert.mixed_ok;
      Alcotest.(check bool)
        "all-SERIALIZABLE mixed agrees with the serializability verdict"
        old.Cert.serializable
        (tagged.Cert.serializable && tagged.Cert.mixed_ok))
    [
      "r1[x=0] w1[x=1] c1 r2[x=1] w2[y=1] c2";
      read_skew;
      write_skew;
      "r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1";
      "r1[x=0] w2[x=1] r2[y=0] w3[y=1] r3[z=0] w1[z=1] c1 c2 c3";
    ]

let suite =
  [
    Alcotest.test_case "strengthen: identity in-family" `Quick
      test_strengthen_identity;
    Alcotest.test_case "strengthen: cross-family mappings" `Quick
      test_strengthen_cross_family;
    Alcotest.test_case "strengthen: preserves forbidden sets" `Quick
      test_strengthen_preserves_contract;
    Alcotest.test_case "mix: parse" `Quick test_mix_parse;
    Alcotest.test_case "mix: family plurality" `Quick
      test_mix_family_plurality;
    Alcotest.test_case "mix: deterministic draw" `Quick
      test_mix_draw_deterministic;
    Alcotest.test_case "witness: RC tolerates read skew" `Quick
      test_rc_reader_tolerates_read_skew;
    Alcotest.test_case "witness: RR caught on read skew" `Quick
      test_rr_reader_caught_on_read_skew;
    Alcotest.test_case "witness: SI tolerates write skew" `Quick
      test_si_pair_tolerates_write_skew;
    Alcotest.test_case "witness: SSI caught on write skew" `Quick
      test_ssi_victim_caught_on_write_skew;
    Alcotest.test_case "witness: SERIALIZABLE victim special case" `Quick
      test_serializable_victim_special_case;
    Alcotest.test_case "witness: untagged defaults to SERIALIZABLE" `Quick
      test_untagged_defaults_to_serializable;
    Alcotest.test_case "witness: defensive abort for a committed victim"
      `Quick test_defensive_abort_protects_committed_victim;
    Alcotest.test_case "property: 20-seed pool runs agree with the oracle"
      `Quick test_mixed_pool_agrees_with_oracle;
    Alcotest.test_case "regression: default criterion unchanged" `Quick
      test_default_criterion_unchanged;
  ]
