(* isolation_lab: command-line laboratory for the paper's isolation
   theory.

     isolation_lab analyze "r1[x=50]w1[x=10]r2[x=10]r2[y=50]c2 r1[y=50]w1[y=90]c1"
     isolation_lab classify --level "snapshot" --phenomenon P3
     isolation_lab scenario P4/plain --level "read committed"
     isolation_lab levels
     isolation_lab figure *)

open Cmdliner

module L = Isolation.Level
module P = Phenomena.Phenomenon
module Executor = Runtime.Executor

(* {2 Arguments} *)

let level_conv =
  let parse s =
    match L.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown isolation level %S" s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (L.name l))

let phenomenon_conv =
  let parse s =
    match P.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown phenomenon %S" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (P.name p))

let level_arg =
  Arg.(
    value
    & opt level_conv L.Serializable
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:
          "Isolation level: degree 0, read uncommitted, read committed, \
           cursor stability, repeatable read, snapshot, oracle, \
           serializable.")

(* Weighted level mixes ("rc=3,si=1,serializable=1") go through the
   workload library's shared parser — one parser, one error message, for
   stress and loadgen alike. *)
let mix_spec_or_exit spec =
  match Workload.Mix.parse spec with
  | Ok m -> m
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit 1

let mix_or_exit name =
  match Workload.Generators.mix_of_string name with
  | Some m -> m
  | None ->
    Fmt.epr "unknown mix %S; available: %s@." name
      (String.concat ", "
         (List.map Workload.Generators.mix_name Workload.Generators.all_mixes));
    exit 1

let levels_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "levels" ] ~docv:"SPEC"
        ~doc:
          "Weighted per-transaction isolation-level mix, comma-separated \
           level[=weight] (e.g. \"rc=70,si=25,serializable=5\"). Overrides \
           $(b,--level): each transaction draws a declared level from the \
           mix and executes at that level's strengthening onto the mix's \
           majority engine family, and the run is judged by the \
           per-transaction mixed criterion — a transaction counts as harmed \
           (and, with $(b,--certify), is aborted) only by cycles whose \
           phenomena its own declared level forbids.")

(* {2 analyze} *)

let analyze dot history_text =
  match History.Parser.parse history_text with
  | Error e ->
    Fmt.epr "parse error %a@." History.Parser.pp_error e;
    exit 1
  | Ok h ->
    Format.printf "history: %s@." (History.to_string h);
    Format.printf "transactions: %s  committed: %s  aborted: %s@."
      (String.concat "," (List.map string_of_int (History.txns h)))
      (String.concat "," (List.map string_of_int (History.committed h)))
      (String.concat "," (List.map string_of_int (History.aborted h)));
    (match History.well_formed h with
    | Ok () -> ()
    | Error msg -> Format.printf "NOT WELL-FORMED: %s@." msg);
    if History.Mv.is_mv h then begin
      Format.printf "multiversion history@.";
      Format.printf "  one-copy serializable: %b@."
        (History.Mv.is_one_copy_serializable h);
      (match History.Mv.mvsg_cycle h with
      | Some cycle ->
        Format.printf "  MVSG cycle: %s@."
          (String.concat " -> " (List.map (fun t -> "T" ^ string_of_int t) cycle))
      | None -> ());
      Format.printf "  snapshot reads respected: %b@."
        (History.Mv.snapshot_reads_respected h);
      Format.printf "  first-committer-wins respected: %b@."
        (History.Mv.first_committer_wins_respected h);
      Format.printf "  single-valued mapping: %s@."
        (History.to_string (History.Mv.si_to_single_version h))
    end
    else begin
      Format.printf "serializable: %b@." (History.Conflict.is_serializable h);
      (match History.Conflict.cycle h with
      | Some cycle ->
        Format.printf "  dependency cycle: %s@."
          (String.concat " -> " (List.map (fun t -> "T" ^ string_of_int t) cycle))
      | None -> ());
      (match History.Conflict.serialization_order h with
      | Some order ->
        Format.printf "  equivalent serial order: %s@."
          (String.concat " " (List.map (fun t -> "T" ^ string_of_int t) order))
      | None -> ())
    end;
    if not (History.Mv.is_mv h) then
      Format.printf "recoverability: %a@." History.Recoverability.pp_class
        (History.Recoverability.classify h);
    let witnesses = List.concat_map snd (Phenomena.Detect.detect_all h) in
    if witnesses = [] then Format.printf "phenomena: none@."
    else begin
      Format.printf "phenomena:@.";
      List.iter (fun w -> Format.printf "  %a@." Phenomena.Detect.pp_witness w) witnesses
    end;
    if dot then begin
      Format.printf "@.dependency graph (dot):@.";
      print_string (History.Conflict.to_dot h)
    end

let analyze_cmd =
  let history_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HISTORY" ~doc:"History in the paper's shorthand notation.")
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Also print the dependency graph in Graphviz dot syntax.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a history: serializability, phenomena, MV properties.")
    Term.(const analyze $ dot_arg $ history_arg)

(* {2 classify} *)

let classify level phenomenon fuw =
  let c = Sim.Classify.cell ~first_updater_wins:fuw level phenomenon in
  Format.printf "%s / %s (%s): %a@." (L.name level) (P.name phenomenon)
    (P.long_name phenomenon) Isolation.Spec.pp_possibility c.Sim.Classify.verdict;
  Format.printf "paper says: %a@." Isolation.Spec.pp_possibility
    (Isolation.Spec.table4 level phenomenon);
  List.iter
    (fun o ->
      Format.printf "  scenario %-18s %-10s (%d interleavings examined)@."
        o.Sim.Classify.scenario.Workload.Scenario.id
        (if o.Sim.Classify.possible then "exhibited" else "impossible")
        o.Sim.Classify.explored;
      match o.Sim.Classify.witness with
      | Some schedule ->
        let s = o.Sim.Classify.scenario in
        let cfg =
          Executor.config ~initial:s.Workload.Scenario.initial
            ~predicates:s.Workload.Scenario.predicates ~first_updater_wins:fuw
            (List.map (fun _ -> level) s.Workload.Scenario.programs)
        in
        let r = Executor.run cfg s.Workload.Scenario.programs ~schedule in
        Format.printf "    witness schedule: %s@."
          (String.concat "" (List.map string_of_int schedule));
        Format.printf "    witness history:  %s@."
          (History.to_string r.Executor.history)
      | None -> ())
    c.Sim.Classify.outcomes

let classify_cmd =
  let phenomenon_arg =
    Arg.(
      required
      & opt (some phenomenon_conv) None
      & info [ "p"; "phenomenon" ] ~docv:"PHENOMENON"
          ~doc:"Phenomenon: P0, P1, P2, P3, P4, P4C, A1, A2, A3, A5A, A5B.")
  in
  let fuw_arg =
    Arg.(
      value & flag
      & info [ "first-updater-wins" ]
          ~doc:"Use the First-Updater-Wins variant of Snapshot Isolation.")
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Decide whether a phenomenon is possible at an isolation level by \
          exhausting every interleaving of its scenarios.")
    Term.(const classify $ level_arg $ phenomenon_arg $ fuw_arg)

(* {2 scenario} *)

let schedule_of_digits digits =
  List.init (String.length digits) (fun i -> Char.code digits.[i] - Char.code '0')

let print_run r =
  Format.printf "history:  %s@." (History.to_string r.Executor.history);
  Format.printf "final:    %s@."
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.Executor.final));
  List.iter
    (fun (t, st) -> Format.printf "T%d %a@." t Executor.pp_status st)
    r.Executor.statuses

let run_scenario id level schedule_opt =
  match
    List.find_opt
      (fun s -> s.Workload.Scenario.id = id)
      Workload.Catalog.all
  with
  | None ->
    Fmt.epr "unknown scenario %S; available:@." id;
    List.iter
      (fun s -> Fmt.epr "  %-18s %s@." s.Workload.Scenario.id s.Workload.Scenario.description)
      Workload.Catalog.all;
    exit 1
  | Some s ->
    Format.printf "%a@." Workload.Scenario.pp s;
    let cfg =
      Executor.config ~initial:s.initial ~predicates:s.predicates
        (List.map (fun _ -> level) s.programs)
    in
    let schedule =
      match schedule_opt with
      | Some digits -> schedule_of_digits digits
      | None ->
        (* Find an exhibiting schedule if one exists, else run serially. *)
        let outcome = Sim.Classify.run_scenario level s in
        (match outcome.Sim.Classify.witness with
        | Some w -> w
        | None ->
          List.concat
            (List.mapi
               (fun i p ->
                 List.init (Core.Program.length p + 1) (fun _ -> i + 1))
               s.programs))
    in
    let r = Executor.run cfg s.programs ~schedule in
    Format.printf "schedule: %s@."
      (String.concat "" (List.map string_of_int schedule));
    print_run r;
    Format.printf "anomaly exhibited: %b@." (s.exhibits r)

let scenario_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario id, e.g. P4/plain.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "schedule" ] ~docv:"DIGITS"
          ~doc:"Explicit schedule as transaction digits, e.g. 121122.")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Run a catalog scenario at a level (with a witness schedule by default).")
    Term.(const run_scenario $ id_arg $ level_arg $ schedule_arg)

(* {2 run — ad-hoc workloads in the mini script syntax} *)

let run_script level init_text schedule_opt script_text =
  let fatal pp e =
    Fmt.epr "%a@." pp e;
    exit 1
  in
  let programs =
    match Workload.Script.parse script_text with
    | Ok ps -> ps
    | Error e -> fatal Workload.Script.pp_error e
  in
  let initial =
    match Workload.Script.parse_initial init_text with
    | Ok rows -> rows
    | Error e -> fatal Workload.Script.pp_error e
  in
  let cfg =
    Executor.config ~initial
      ~predicates:(Workload.Script.predicates_of programs)
      (List.map (fun _ -> level) programs)
  in
  let schedule =
    match schedule_opt with
    | Some digits -> schedule_of_digits digits
    | None ->
      (* Default: a round-robin interleaving, one operation per turn. *)
      let sizes = List.map (fun p -> Core.Program.length p + 1) programs in
      let n = List.length programs in
      List.concat
        (List.init
           (List.fold_left max 0 sizes)
           (fun _ -> List.init n (fun i -> i + 1)))
  in
  let r = Executor.run cfg programs ~schedule in
  Format.printf "level:    %s@." (L.name level);
  print_run r;
  Format.printf "blocked attempts: %d   deadlocks: %d@."
    r.Executor.blocked_attempts r.Executor.deadlock_aborts;
  (match Phenomena.Detect.exhibited r.Executor.history with
  | [] -> Format.printf "phenomena: none@."
  | ps ->
    Format.printf "phenomena: %s@."
      (String.concat ", " (List.map P.name ps)));
  let serializable =
    if History.Mv.is_mv r.Executor.history then
      History.Mv.is_one_copy_serializable r.Executor.history
    else History.Conflict.is_serializable r.Executor.history
  in
  Format.printf "serializable: %b@." serializable

let run_cmd =
  let script_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Workload in the mini syntax: transactions separated by '|', \
             statements by ';' - e.g.: r x; w y += 40 | r x; r y")
  in
  let init_arg =
    Arg.(
      value & opt string ""
      & info [ "i"; "init" ] ~docv:"ROWS" ~doc:"Initial rows, e.g. x=50, y=50")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "schedule" ] ~docv:"DIGITS"
          ~doc:"Interleaving as transaction digits (default round-robin).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run an ad-hoc workload at an isolation level and analyze the history.")
    Term.(const run_script $ level_arg $ init_arg $ schedule_arg $ script_arg)

(* {2 stress — the multicore runtime with its live oracle, optionally
   under injected faults} *)

(* Wire SIGINT to the pool's drain flag: the first Ctrl-C finishes
   in-flight transactions, takes no new work, and still reports (trace,
   journal, oracle all intact); a second Ctrl-C kills the process. A
   repeat within 0.2 s is the same Ctrl-C delivered twice, as `timeout`
   does outside --foreground (to its child and its process group). *)
let drain_on_sigint () =
  let stop = Atomic.make false and first = ref 0. in
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle
          (fun _ ->
            if Atomic.get stop then begin
              if Unix.gettimeofday () -. !first > 0.2 then Stdlib.exit 130
            end
            else begin
              first := Unix.gettimeofday ();
              Atomic.set stop true;
              prerr_endline
                "draining: finishing in-flight transactions (Ctrl-C again to \
                 kill)"
            end))
   with Invalid_argument _ -> ());
  stop

(* Above this many transactions the full engine trace stops being worth
   its memory; stress flips to the out-of-core pipeline unless --history
   forces it back on. *)
let out_of_core_threshold = 65_536

(* The flight recorder behind --trace, when one was asked for. *)
let trace_sink ~workers = function
  | None -> None
  | Some _ -> Some (Trace.Sink.create ~workers:(max 1 workers) ())

(* Each oracle witness mapped back onto the recorded interleaving. *)
let print_provenance ~events ~history = function
  | [] -> ()
  | ws ->
    Format.printf "@.anomaly provenance:@.";
    List.iter
      (fun w ->
        Trace.Render.provenance ~events Format.std_formatter ~history w;
        Format.printf "@.")
      ws

(* Write a report's JSON line to [path] and say so. *)
let write_json path what json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc json;
      Out_channel.output_string oc "\n");
  Format.printf "%s written to %s@." what path

(* Flags [stress] shares with [serve] (and [loadgen]), defined once. *)

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:"Worker domains (a server's sessions may far exceed N).")

let mix_arg =
  Arg.(
    value & opt string "hotspot"
    & info [ "m"; "mix" ] ~docv:"MIX"
        ~doc:"Workload mix: transfer, hotspot, read-heavy, mixed.")

let accounts_arg =
  Arg.(
    value & opt int 16
    & info [ "accounts" ] ~docv:"N" ~doc:"Rows in the initial bank table.")

let duration_arg =
  Arg.(
    value & opt (some float) None
    & info [ "d"; "duration" ] ~docv:"SECONDS"
        ~doc:
          "Run for this long, then drain: $(b,stress) instead of a fixed \
           transaction count, $(b,serve) instead of until SIGINT.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seeds the workload, the backoff jitter and every fault decision: \
           the same seed injects the same faults at the same transactions \
           regardless of interleaving.")

let stripes_arg =
  Arg.(
    value & opt int Runtime.Pool.default_stripes
    & info [ "stripes" ] ~docv:"N"
        ~doc:
          "Key stripes for the striped execution path (locking engines; \
           one extra stripe serializes predicate locking). Each engine step \
           takes only the stripes its footprint touches.")

let coarse_arg =
  Arg.(
    value & flag
    & info [ "coarse" ]
        ~doc:
          "Serialize every engine step under one coarse latch (a single \
           stripe with every footprint widened to the whole store) — the \
           pre-striping behavior, kept as the comparison baseline.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Certify serializability online: feed every recorded action to \
           the incremental dependency graph and abort a transaction the \
           moment its action closes a cycle, before it can commit. Works at \
           any isolation level — anomalies are certified away rather than \
           observed; the run fails if the committed projection still has a \
           cycle. Adds certifier_aborts to the metrics, dep_edge / \
           dep_cycle events to the trace, and a certifier section (with \
           per-kind wr/ww/rw edge counts) to the JSON.")

let wal_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Keep the write-ahead log in segmented files under DIR (created \
           if missing) instead of in memory. Commit records reach the disk \
           through group commit: one fsync covers every commit that queued \
           behind it.")

let checkpoint_arg =
  Arg.(
    value & opt int 10_000
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Commits between WAL checkpoints (0 = never). A checkpoint logs \
           the committed store image plus the undo journals of the \
           in-flight transactions and truncates everything older, so the \
           log stays bounded however long the run.")

let history_arg =
  Arg.(
    value & opt (some bool) None
    & info [ "history" ] ~docv:"BOOL"
        ~doc:
          "Keep the full engine trace and run the post-run oracle over all \
           of it (no window: the oracle costs the size of the history \
           plus what it finds). \
           $(b,serve) defaults to true; $(b,stress) to true up to 65536 \
           transactions (and for --duration runs), false above. false is \
           the out-of-core mode: no trace and no attempt journal are kept, \
           and the online certifier ($(b,--certify)) carries the \
           serializability verdict.")

(* Where serve listens, and where loadgen and top connect. *)
let host_arg doc =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg doc =
  Arg.(value & opt int 7654 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the run report (metrics, verdicts) as JSON.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured event trace (attempts, sessions, engine \
           steps, lock traffic, backoff sleeps, deadlocks, injected faults) \
           and write it as Chrome trace_event JSON — loadable in \
           chrome://tracing or Perfetto, and re-renderable with \
           $(b,isolation_lab explain).")

let stress workers level levels_spec mix_name txns duration accounts hot ops
    think seed fuw stripes coarse certify wal_dir
    checkpoint_every history faults stall_us deadline_ms watchdog_ms
    crash_points crash_sample json_path trace_path telemetry_path =
  let mix = mix_or_exit mix_name in
  if faults < 0. || faults > 1. then begin
    Fmt.epr "--faults must be in [0, 1]@.";
    exit 1
  end;
  (* --levels: a mixed-isolation run. One engine family (the mix's
     weight plurality) executes everything; each transaction keeps the
     level it declared and runs at its in-family strengthening. *)
  let lmix = Option.map mix_spec_or_exit levels_spec in
  let level_label =
    match lmix with
    | Some m -> Workload.Mix.to_string m
    | None -> L.name level
  in
  let family =
    match lmix with
    | Some m -> Workload.Mix.family m
    | None -> Core.Engine.family_of_levels [ level ]
  in
  let criterion =
    if lmix = None then Runtime.Certifier.Serializability
    else Runtime.Certifier.Mixed
  in
  let gen i =
    let p =
      Workload.Generators.stress_program mix ~seed ~accounts ~hot ~ops ~index:i
    in
    match lmix with
    | Some m ->
      let declared = Workload.Mix.draw m ~seed ~index:i in
      Runtime.Pool.job ~name:p.Core.Program.name ~declared
        ~level:(Isolation.Lattice.strengthen declared family)
        p
    | None -> Runtime.Pool.job ~name:p.Core.Program.name ~level p
  in
  let sink = trace_sink ~workers trace_path in
  let plan =
    if faults <= 0. then None
    else
      (* Stalls must fit inside the deadline budget, or every stalled
         attempt blows its deadline and the run never drains. *)
      let stall_us =
        match (stall_us, deadline_ms) with
        | Some us, _ -> us
        | None, Some d -> Float.min 2000. (d *. 1000. /. 4.)
        | None, None -> 2000.
      in
      Some (Fault.Plan.chaos ~stall_us ~rate:faults ~seed ())
  in
  (* The watchdog watches by default only while faults are injected;
     an explicit 0 turns it off. *)
  let watchdog_ms =
    match watchdog_ms with
    | Some w when w <= 0. -> None
    | Some w -> Some w
    | None -> if Option.is_some plan then Some 25. else None
  in
  (* Faults or crash points turn on the fault checks: committed-effects
     conservation, and crash-point recovery when asked for. *)
  let fault_checks = Option.is_some plan || crash_points in
  let initial = Workload.Generators.bank_accounts accounts in
  let stop = drain_on_sigint () in
  (* Out-of-core decision: huge fixed-count runs drop the trace and the
     attempt journal — the engine logs to its (checkpoint-truncated) WAL,
     and the online certifier carries the serializability verdict the
     oracle would otherwise give. *)
  let keep_history =
    match history with
    | Some b -> b
    | None -> duration <> None || txns <= out_of_core_threshold
  in
  let cfg =
    Runtime.Pool.config ~workers ~initial ~first_updater_wins:fuw ~stripes
      ~coarse ~think_us:think
      ~seed ?trace:sink ~certify ~criterion ~family ?fault:plan
      ?deadline_us:(Option.map (fun ms -> ms *. 1000.) deadline_ms)
      ?watchdog_us:(Option.map (fun ms -> ms *. 1000.) watchdog_ms)
      ?wal_dir ~checkpoint_every ~keep_history ~stop ()
  in
  if not keep_history then
    Format.printf
      "out-of-core: history off (%s), no journal kept; checkpoints every %d \
       commits%s@."
      (if history = Some false then "--history false"
       else Printf.sprintf "%d txns > %d" txns out_of_core_threshold)
      checkpoint_every
      (match wal_dir with
      | Some d -> Printf.sprintf ", wal segments in %s" d
      | None -> "");
  let ms_or_no = function
    | Some ms -> Printf.sprintf "%.1fms" ms
    | None -> "no"
  in
  Format.printf
    "stress: %d workers, %s, mix %s, %s, %d accounts (%d hot), think \
     %.0fus, seed %d, %s%s@."
    cfg.Runtime.Pool.workers
    (if lmix = None then "level " ^ level_label
     else "levels " ^ level_label ^ " (mixed criterion)")
    (Workload.Generators.mix_name mix)
    (match duration with
    | Some d -> Printf.sprintf "%.2fs deadline" d
    | None -> Printf.sprintf "%d transactions" txns)
    accounts hot think seed
    (* only the locking family runs striped; the multiversion and
       timestamp engines step under one stripe *)
    (if coarse then "coarse latch"
     else if family <> `Locking then "1 stripe"
     else Printf.sprintf "%d stripes" cfg.Runtime.Pool.stripes)
    (if Option.is_none plan && deadline_ms = None && watchdog_ms = None then ""
     else
       Printf.sprintf ", fault rate %g, %s deadline, %s watchdog" faults
         (ms_or_no deadline_ms) (ms_or_no watchdog_ms));
  (* --telemetry: a sampler thread scrapes the live runtime reading
     every second and appends Prometheus exposition blocks, one per
     scrape, so a run leaves a greppable time series behind. *)
  let telemetry_stop = ref false in
  let telemetry_threads = ref [] in
  let monitor =
    match telemetry_path with
    | None -> None
    | Some path ->
      Some
        (fun sampler ->
          let th =
            Thread.create
              (fun () ->
                Out_channel.with_open_text path (fun oc ->
                    let scrape () =
                      let live = sampler () in
                      Printf.fprintf oc "# scrape %.6f\n%s\n"
                        live.Runtime.Pool.at
                        (Telemetry.Report.to_prometheus
                           (Telemetry.Report.make live));
                      flush oc
                    in
                    scrape ();
                    (* the t=0 baseline; even a sub-second run leaves a
                       well-formed series *)
                    while not !telemetry_stop do
                      (* nap in 0.1s steps so the final join is prompt;
                         the loop body still cuts one last scrape after
                         the drain *)
                      let rec nap k =
                        if k > 0 && not !telemetry_stop then begin
                          Thread.delay 0.1;
                          nap (k - 1)
                        end
                      in
                      nap 10;
                      scrape ()
                    done))
              ()
          in
          telemetry_threads := th :: !telemetry_threads)
  in
  let r =
    match duration with
    | Some d -> Runtime.Pool.run_for ?monitor cfg ~duration_s:d ~gen
    | None -> Runtime.Pool.run_n ?monitor cfg ~txns ~gen
  in
  telemetry_stop := true;
  List.iter Thread.join !telemetry_threads;
  (match telemetry_path with
  | Some path -> Format.printf "telemetry time series written to %s@." path
  | None -> ());
  let memory = Runtime.Sysmem.read () in
  Format.printf "%a" (Telemetry.Report.pp_final ~memory) r;
  if fault_checks then
    (match plan with
    | Some p ->
      Format.printf "faults injected: %d (%s)@." (Fault.Plan.total p)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s %d" k n)
              (Fault.Plan.injected p)))
    | None -> Format.printf "faults injected: none (rate 0)@.");
  (* Conservation check: the surviving store must equal a replay of the
     WAL's committed transactions over the initial state — no committed
     effect lost, none duplicated, nothing from an aborted attempt. The
     locking and timestamp engines replay single-version records; the
     multiversion engine replays the versioned record set and compares
     latest visible rows. *)
  let initial_store = Storage.Store.of_list initial in
  let effects_ok =
    match r.Runtime.Pool.wal with
    | Some wal when fault_checks ->
      let ok =
        match family with
        | `Mv ->
          let ideal = Storage.Recovery.ideal_mv ~initial wal in
          List.sort compare (Storage.Version_store.to_latest_list ideal)
          = List.sort compare r.Runtime.Pool.final
        | `Locking | `Timestamp ->
          let ideal = Storage.Recovery.ideal_state ~initial:initial_store wal in
          Storage.Store.equal (Storage.Store.of_list r.Runtime.Pool.final) ideal
      in
      Format.printf "committed effects: %s@."
        (if ok then "CONSERVED (final state = committed WAL replay)"
         else "LOST OR DUPLICATED (final state differs from committed WAL \
               replay)");
      Some ok
    | _ -> None
  in
  (* P0-free levels must recover at every crash point; a Degree 0 run
     admitting dirty writes is *expected* to fail somewhere — that is the
     paper's §3 argument made executable. With a mix, the crash assertion
     only applies if *every* declared level forbids P0: one Degree-0
     transaction in the mix already makes unrecoverable crash points the
     expected finding. *)
  let p0_free =
    List.for_all
      (fun l -> List.mem P.P0 (Isolation.Spec.forbidden l))
      (match lmix with Some m -> Workload.Mix.levels m | None -> [ level ])
  in
  let crash_report =
    match r.Runtime.Pool.wal with
    | Some wal when crash_points ->
      let report =
        match family with
        | `Mv ->
          Fault.Crash.enumerate_mv ?sample:crash_sample ~seed ~initial wal
        | `Locking | `Timestamp ->
          Fault.Crash.enumerate ?sample:crash_sample ~seed
            ~initial:initial_store wal
      in
      Format.printf "%a@." Fault.Crash.pp report;
      if (not (Fault.Crash.ok report)) && not p0_free then
        Format.printf
          "  (expected: %s admits P0, so before-image undo is unsound — \
           the paper's section 3 dilemma)@."
          ((if lmix = None then "" else "the mix ") ^ level_label);
      Some report
    | _ -> None
  in
  (match (trace_path, sink) with
  | Some path, Some s ->
    Option.iter
      (fun rep ->
        Trace.Sink.emit_external s ~worker:0 ~tid:0
          (Trace.Event.Crash_replay
             {
               points = rep.Fault.Crash.points + rep.Fault.Crash.torn_points;
               torn = rep.Fault.Crash.torn_points;
               failures = List.length rep.Fault.Crash.failures;
             }))
      crash_report;
    Telemetry.Report.write_trace path ~tool:"isolation_lab stress"
      ~level:level_label ~mix:(Workload.Generators.mix_name mix) ~workers
      ~seed ~events:(Trace.Sink.events s) r
  | _ -> ());
  Option.iter
    (fun o ->
      print_provenance ~events:r.Runtime.Pool.events
        ~history:r.Runtime.Pool.history o.Runtime.Oracle.witnesses)
    r.Runtime.Pool.oracle;
  let m = r.Runtime.Pool.metrics in
  Option.iter
    (fun path ->
      let chaos =
        if not fault_checks then []
        else
          let by_class =
            match plan with
            | None -> "{}"
            | Some p ->
              Printf.sprintf "{%s}"
                (String.concat ","
                   (List.map
                      (fun (k, n) -> Printf.sprintf "%S:%d" k n)
                      (Fault.Plan.injected p)))
          in
          [
            ( "chaos",
              Printf.sprintf
                "{\"fault_rate\":%g,\"faults_injected\":%d,\"by_class\":%s,\"deadline_exceeded\":%d,\"watchdog_kicks\":%d,\"effects_ok\":%s,\"crash_points\":%s}"
                faults m.Runtime.Metrics.faults_injected by_class
                m.Runtime.Metrics.deadline_exceeded
                m.Runtime.Metrics.watchdog_kicks
                (match effects_ok with
                | Some b -> string_of_bool b
                | None -> "null")
                (match crash_report with
                | Some rep -> Fault.Crash.to_json rep
                | None -> "null") );
          ]
      in
      (* [txns] counts the jobs actually run: a --duration run ignores
         --txns, and a SIGINT drain can cut a fixed-count run short. *)
      write_json path "metrics"
        (Telemetry.Report.final_json ~memory r ~sections:chaos
           ~header:
             Trace.Json.[
               ("level", String level_label);
               ("mix", String (Workload.Generators.mix_name mix));
               ("workers", Int workers);
               ( "txns",
                 Int (m.Runtime.Metrics.committed + m.Runtime.Metrics.giveups) );
             ]))
    json_path;
  (* Fault checks: lost or duplicated committed effects, or a crash
     point a P0-free level failed to recover from. Degree 0 crash
     failures are the expected finding, not an error. *)
  let effects_fine = effects_ok <> Some false in
  let crash_fine =
    match crash_report with
    | Some rep when p0_free -> Fault.Crash.ok rep
    | _ -> true
  in
  (* A mixed run has no single-level promise: harm is judged per victim
     and only enforced by --certify. *)
  let promised = if lmix = None then Some level else None in
  if
    not
      (Telemetry.Report.verdict ?promised r && effects_fine && crash_fine)
  then exit 1

let stress_cmd =
  let txns_arg =
    Arg.(
      value & opt int 256
      & info [ "n"; "txns" ] ~docv:"N"
          ~doc:
            "Transactions to run (ignored with --duration). The post-run \
             oracle judges the whole history in time that grows with its \
             length plus the anomalies it reports.")
  in
  let hot_arg =
    Arg.(
      value & opt int 4
      & info [ "hot" ] ~docv:"N"
          ~doc:"Size of the contended key set for the hotspot mix.")
  in
  let ops_arg =
    Arg.(
      value & opt int 6
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per mixed-mix transaction.")
  in
  let think_arg =
    Arg.(
      value & opt float 100.
      & info [ "think" ] ~docv:"MICROSECONDS"
          ~doc:
            "Mean think time between a transaction's statements. This is \
             what makes transactions overlap; 0 measures raw serial \
             engine throughput.")
  in
  let fuw_arg =
    Arg.(
      value & flag
      & info [ "first-updater-wins" ]
          ~doc:"Use the First-Updater-Wins variant of Snapshot Isolation.")
  in
  let faults_arg =
    Arg.(
      value & opt float 0.
      & info [ "faults" ] ~docv:"RATE"
          ~doc:
            "Deterministic seeded fault injection at RATE in [0,1]: worker \
             stalls and torn commits fire at RATE per injection point, \
             spurious step failures and forced deadlock victims at RATE/2. \
             0 (the default) disables injection. Above 0 the run also \
             checks that committed effects are conserved (final state = \
             committed WAL replay) and adds a chaos section to the JSON.")
  in
  let stall_us_arg =
    Arg.(
      value & opt (some float) None
      & info [ "stall-us" ] ~docv:"MICROSECONDS"
          ~doc:
            "Injected stall length. Default 2000, clamped to a quarter of \
             the deadline so stalled attempts can still commit.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-attempt wall-clock budget: an attempt past it aborts \
             itself gracefully and the job retries.")
  in
  let watchdog_arg =
    Arg.(
      value & opt (some float) None
      & info [ "watchdog-ms" ] ~docv:"MS"
          ~doc:
            "Stuck-worker threshold for the watchdog domain (report-only). \
             Default 25ms with $(b,--faults), off otherwise; 0 disables.")
  in
  let crash_points_arg =
    Arg.(
      value & flag
      & info [ "crash-points" ]
          ~doc:
            "After the run, replay recovery at every WAL prefix and every \
             torn mid-record tail, checking each crash image against the \
             committed-only ideal state (single-version engines) or the \
             committed-stamped version store (multiversion family). A \
             level that forbids P0 must recover everywhere; Degree 0 is \
             expected to show UNSOUND points. Also runs the \
             committed-effects check.")
  in
  let crash_sample_arg =
    Arg.(
      value & opt (some int) None
      & info [ "crash-sample" ] ~docv:"N"
          ~doc:
            "With --crash-points, check at most N seeded-random points per \
             category (clean prefixes, torn tails) instead of all of them. \
             The empty prefix, the full log and every torn Commit/Abort \
             record are always checked; the draw is deterministic in \
             --seed. Turns the O(n^2) exhaustive replay into O(N n) for \
             long logs.")
  in
  let telemetry_arg =
    Arg.(
      value & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Scrape the live runtime once a second while the run is in \
             flight and append each reading as a Prometheus text-format \
             block (separated by $(b,# scrape) timestamp comments) — a \
             time series of the run, not just its final totals.")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Drive the engines with concurrent worker domains and check the \
          whole recorded history with the serializability oracle. With \
          $(b,--faults) the run injects deterministic seeded faults — \
          worker stalls, spurious failures, forced deadlock victims, torn \
          WAL commits — and checks that committed effects are conserved; \
          with $(b,--crash-points) recovery must succeed at every crash \
          point.")
    Term.(
      const stress $ workers_arg $ level_arg $ levels_spec_arg $ mix_arg
      $ txns_arg $ duration_arg $ accounts_arg $ hot_arg $ ops_arg $ think_arg
      $ seed_arg $ fuw_arg $ stripes_arg $ coarse_arg $ certify_arg
      $ wal_dir_arg $ checkpoint_arg $ history_arg $ faults_arg $ stall_us_arg
      $ deadline_arg $ watchdog_arg $ crash_points_arg $ crash_sample_arg
      $ json_arg $ trace_arg $ telemetry_arg)

(* {2 explain — re-render a recorded trace} *)

let explain file txn show_log limit =
  match Trace.Chrome.read_file file with
  | Error e ->
    Fmt.epr "explain: %s@." e;
    exit 1
  | Ok (meta, events) ->
    let spans = Trace.Span.of_events events in
    Format.printf "%s: level %s, mix %s, %d workers, seed %d@."
      meta.Trace.Chrome.tool meta.Trace.Chrome.level meta.Trace.Chrome.mix
      meta.Trace.Chrome.workers meta.Trace.Chrome.seed;
    if meta.Trace.Chrome.dropped > 0 then
      Format.printf
        "flight recorder dropped %d events; the oldest timelines may be \
         truncated@."
        meta.Trace.Chrome.dropped;
    let history =
      match History.Parser.parse meta.Trace.Chrome.history with
      | Ok h -> Some h
      | Error _ -> None
    in
    (match txn with
    | Some tid -> (
      match Trace.Span.find spans tid with
      | None ->
        Fmt.epr "explain: no transaction %d in the trace@." tid;
        exit 1
      | Some span -> Format.printf "%a@." Trace.Render.transaction span)
    | None ->
      Format.printf "%d events, %d transaction attempts, retry overhead \
                     %.3fms@."
        (List.length events) (List.length spans)
        (float (Trace.Span.retry_overhead_ns spans) /. 1e6);
      (match history with
      | Some h -> Format.printf "history: %s@." (Trace.Render.history_line h)
      | None -> ());
      Format.printf "%a@." Trace.Render.timeline spans;
      if show_log then
        Format.printf "%a@."
          (fun ppf -> Trace.Render.event_log ?limit ppf)
          events;
      (* Anomaly view: re-run the oracle on the embedded history and map
         each witness back onto the recorded interleaving. *)
      match history with
      | None ->
        Format.printf
          "no parseable history in the trace file; skipping the anomaly \
           check@."
      | Some h ->
        let oracle = Runtime.Oracle.check h in
        Format.printf "%a@.oracle verdict: %s@." Runtime.Oracle.pp oracle
          (Telemetry.Report.oracle_verdict oracle);
        (* Certifier provenance: when the run was traced with --certify,
           each dep_cycle event records which dependency-edge class (wr,
           ww or rw) would have closed a cycle, and on whom. *)
        (match
           List.filter_map
             (fun (e : Trace.Event.t) ->
               match e.Trace.Event.kind with
               | Trace.Event.Dep_cycle { cycle; dep; src; dst; victim_level } ->
                 Some (cycle, dep, src, dst, victim_level)
               | _ -> None)
             events
         with
        | [] -> ()
        | cycles ->
          let shown_max = 10 in
          Format.printf "@.certified cycles (closing edge class):@.";
          List.iteri
            (fun i (cycle, dep, src, dst, victim_level) ->
              if i < shown_max then
                Format.printf "  %s: closed by %s edge T%d -> T%d%s@."
                  (String.concat " -> "
                     (List.map (fun t -> "T" ^ string_of_int t) cycle))
                  dep src dst
                  (match victim_level with
                  | None -> ""
                  | Some l -> " (victim declared " ^ l ^ ")"))
            cycles;
          let n = List.length cycles in
          if n > shown_max then
            Format.printf "  ... and %d more@." (n - shown_max));
        print_provenance ~events ~history:h oracle.Runtime.Oracle.witnesses)

(* {2 serve / loadgen — the wire-protocol front-end} *)

let family_of_string = function
  | "locking" | "lock" -> Some `Locking
  | "mv" | "multiversion" | "snapshot" -> Some `Mv
  | "timestamp" | "to" | "t/o" -> Some `Timestamp
  | _ -> None

let family_name = function
  | `Locking -> "locking"
  | `Mv -> "multiversion"
  | `Timestamp -> "timestamp"

let serve workers family_str level criterion_str port host accounts stripes
    coarse certify certify_batch wal_dir checkpoint_every history
    duration drain_grace seed disconnect_rate trace_path json_path
    telemetry_port =
  let family =
    match family_of_string (String.lowercase_ascii family_str) with
    | Some f -> f
    | None ->
      Fmt.epr "unknown engine family %S (locking, mv, timestamp)@." family_str;
      exit 1
  in
  let criterion =
    match String.lowercase_ascii criterion_str with
    | "serializable" | "serializability" | "ser" ->
      Runtime.Certifier.Serializability
    | "mixed" -> Runtime.Certifier.Mixed
    | other ->
      Fmt.epr "unknown criterion %S (serializable, mixed)@." other;
      exit 1
  in
  if L.family level <> family then begin
    Fmt.epr "default level %s needs the %s family, not %s@." (L.name level)
      (family_name (L.family level))
      (family_name family);
    exit 1
  end;
  if disconnect_rate < 0. || disconnect_rate > 1. then begin
    Fmt.epr "--disconnect-rate must be in [0, 1]@.";
    exit 1
  end;
  let sink = trace_sink ~workers trace_path in
  let fault =
    if disconnect_rate <= 0. then None
    else Some (Fault.Plan.create ~disconnect_rate ~seed ())
  in
  let stop = drain_on_sigint () in
  (* Long-lived servers can outgrow any in-memory history: --history
     false drops the trace, the attempt journal and the post-run oracle
     (the online certifier still certifies when --certify). *)
  let keep_history = Option.value ~default:true history in
  let pool =
    Runtime.Pool.config ~workers
      ~initial:(Workload.Generators.bank_accounts accounts)
      ~stripes ~coarse ~certify ~certify_batch ~criterion ~seed
      ?trace:sink ?fault ?wal_dir ~checkpoint_every ~keep_history ()
  in
  let cfg =
    Server.Frontend.config ~host ~port ~default_level:level
      ~drain_grace_s:drain_grace ?duration_s:duration ~stop
      ~on_ready:(fun p ->
        Format.printf
          "serving on %s:%d (%d workers, %s family, default %s%s%s)@." host p
          workers (family_name family) (L.name level)
          (if certify then ", certified" else "")
          (if criterion = Runtime.Certifier.Mixed then ", mixed criterion"
           else "");
        Format.print_flush ())
      ?telemetry_port
      ~telemetry_ready:(fun p ->
        Format.printf "telemetry on http://%s:%d/metrics@." host p;
        Format.print_flush ())
      ~pool ~family ()
  in
  let r, stats = Server.Frontend.serve cfg in
  Format.printf "%a@." Server.Frontend.pp_stats stats;
  let memory = Runtime.Sysmem.read () in
  Format.printf "%a" (Telemetry.Report.pp_final ~memory) r;
  Option.iter
    (fun path ->
      Telemetry.Report.write_trace path ~tool:"isolation_lab serve"
        ~level:(L.name level) ~mix:"wire" ~workers ~seed r)
    trace_path;
  Option.iter
    (fun path ->
      write_json path "server report"
        (Telemetry.Report.final_json ~memory r
           ~sections:[ ("server", Telemetry.Report.server_json stats) ]
           ~header:
             Trace.Json.
               [
                 ("family", String (family_name family));
                 ("default_level", String (L.name level));
                 ( "criterion",
                   String
                     (match criterion with
                     | Runtime.Certifier.Mixed -> "mixed"
                     | Runtime.Certifier.Serializability -> "serializable") );
                 ("workers", Int workers);
               ]))
    json_path;
  if not (Telemetry.Report.verdict r) then exit 1

let serve_cmd =
  let family_arg =
    Arg.(
      value & opt string "locking"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Engine family: locking, mv (multiversion) or timestamp. \
             Sessions may SET any level within the family.")
  in
  let level_arg =
    Arg.(
      value & opt level_conv L.Read_committed
      & info [ "l"; "level" ] ~docv:"LEVEL"
          ~doc:"Default isolation level for sessions that never SET one.")
  in
  let criterion_arg =
    Arg.(
      value & opt string "serializable"
      & info [ "criterion" ] ~docv:"CRITERION"
          ~doc:
            "Correctness criterion for $(b,--certify): $(b,serializable) \
             dooms every transaction on a closing cycle; $(b,mixed) judges \
             each cycle against the victim's declared level (Table 4) and \
             aborts only transactions whose own level forbids the structure.")
  in
  let certify_batch_arg =
    Arg.(
      value & opt bool true
      & info [ "certify-batch" ] ~docv:"BOOL"
          ~doc:
            "Batch certifier edge offers outside the engine trace lock \
             (default true; false restores the unbatched feed).")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 2.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"Grace for in-flight transactions during shutdown.")
  in
  let disconnect_arg =
    Arg.(
      value & opt float 0.
      & info [ "disconnect-rate" ] ~docv:"RATE"
          ~doc:
            "Per-frame probability of an injected connection sever \
             (deterministic, seeded): open transactions on the connection \
             abort and drain through client retry.")
  in
  let telemetry_port_arg =
    Arg.(
      value & opt (some int) None
      & info [ "telemetry-port" ] ~docv:"PORT"
          ~doc:
            "Also serve a Prometheus text exposition of the live metrics \
             over HTTP on this port (0 picks one). The same snapshot \
             answers the wire protocol's STATS admin op — see \
             $(b,isolation_lab top).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the wire protocol: sessions declare isolation levels, \
          transactions multiplex over the worker-domain pool, and the \
          whole recorded history is oracle-checked at shutdown.")
    Term.(
      const serve $ workers_arg $ family_arg $ level_arg $ criterion_arg
      $ port_arg "Listen port (0 picks one)." $ host_arg "Listen address."
      $ accounts_arg $ stripes_arg $ coarse_arg $ certify_arg
      $ certify_batch_arg $ wal_dir_arg $ checkpoint_arg
      $ history_arg $ duration_arg $ drain_grace_arg $ seed_arg
      $ disconnect_arg $ trace_arg $ json_arg $ telemetry_port_arg)

let loadgen host port preset sessions conns txns mix_name levels_str accounts
    hot ops think seed max_attempts json_path progress =
  (* Presets override the shape knobs; everything else (mix, levels,
     seed, ...) still applies. "1m" is the out-of-core acceptance run:
     10^6 transactions against a server started with --history false and
     a --wal-dir, where the WAL checkpoints, no journal is kept and RSS
     stays flat — the progress line reports commits-vs-total and the
     generator's RSS each interval. *)
  let sessions, txns, progress =
    match preset with
    | None -> (sessions, txns, progress)
    | Some "1m" ->
      (500, 2_000, if progress > 0. then progress else 5.)
    | Some p ->
      Fmt.epr "unknown --preset %S; available: 1m@." p;
      exit 1
  in
  let mix = mix_or_exit mix_name in
  let levels = mix_spec_or_exit levels_str in
  let cfg =
    Server.Loadgen.config ~host ~port ~sessions ?conns ~txns_per_session:txns
      ~mix ~levels ~accounts ~hot ~ops ~think_us:think ~seed ~max_attempts
      ~progress_s:progress ()
  in
  Format.printf
    "loadgen: %d sessions over %d connections -> %s:%d, %d txns/session, mix \
     %s, levels %s, seed %d@."
    sessions cfg.Server.Loadgen.conns host port txns
    (Workload.Generators.mix_name mix)
    (Workload.Mix.to_string levels)
    seed;
  Format.print_flush ();
  let st = Server.Loadgen.run cfg in
  Format.printf "%a@." Server.Loadgen.pp_stats st;
  Option.iter
    (fun path ->
      write_json path "loadgen report"
        (Printf.sprintf
           "{\"sessions\":%d,\"committed\":%d,\"aborted\":%d,\"giveups\":%d,\"draining_rejects\":%d,\"protocol_errors\":%d,\"requests\":%d,\"wall_s\":%.3f,\"throughput\":%.1f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f}"
           st.Server.Loadgen.sessions st.Server.Loadgen.committed
           st.Server.Loadgen.aborted st.Server.Loadgen.giveups
           st.Server.Loadgen.draining_rejects st.Server.Loadgen.protocol_errors
           st.Server.Loadgen.requests st.Server.Loadgen.wall_s
           st.Server.Loadgen.throughput st.Server.Loadgen.p50_ms
           st.Server.Loadgen.p95_ms st.Server.Loadgen.p99_ms))
    json_path;
  if st.Server.Loadgen.protocol_errors > 0 then exit 1

let loadgen_cmd =
  let preset_arg =
    Arg.(
      value & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Canned run shapes. \"1m\": one million transactions (500 \
             sessions x 2000 txns, progress every 5s with an RSS \
             reading) — pair it with a server started out-of-core \
             ($(b,serve --history false --wal-dir ...)) to exercise the \
             whole out-of-core pipeline. Overrides --sessions/--txns.")
  in
  let sessions_arg =
    Arg.(
      value & opt int 64
      & info [ "s"; "sessions" ] ~docv:"N" ~doc:"Concurrent client sessions.")
  in
  let conns_arg =
    Arg.(
      value & opt (some int) None
      & info [ "conns" ] ~docv:"N"
          ~doc:
            "Sockets to spread the sessions over (default min(sessions, \
             32)); each socket pipelines its sessions' requests.")
  in
  let txns_arg =
    Arg.(
      value & opt int 10
      & info [ "n"; "txns" ] ~docv:"N" ~doc:"Transactions per session.")
  in
  let levels_arg =
    Arg.(
      value & opt string "rc"
      & info [ "levels" ] ~docv:"SPEC"
          ~doc:
            "Weighted per-session isolation levels, comma-separated \
             level[=weight] (e.g. \"rc=1,serializable=1\"). Each session \
             draws one and declares it with SET LEVEL.")
  in
  let hot_arg =
    Arg.(
      value & opt int 4
      & info [ "hot" ] ~docv:"N" ~doc:"Contended key set for hotspot.")
  in
  let ops_arg =
    Arg.(
      value & opt int 6
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per mixed-mix transaction.")
  in
  let think_arg =
    Arg.(
      value & opt float 0.
      & info [ "think" ] ~docv:"MICROSECONDS"
          ~doc:"Mean client think time between requests.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed (same programs as \
                                           the in-process stress harness).")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int 10
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Client-side retry budget per transaction.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the run report as JSON.")
  in
  let progress_arg =
    Arg.(
      value & opt float 0.
      & info [ "progress" ] ~docv:"SECONDS"
          ~doc:
            "Print an interval line (commit rate, aborts, retries) to \
             stderr this often while driving; 0 disables.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running server with N wire sessions; exits non-zero on \
          any protocol error.")
    Term.(
      const loadgen $ host_arg "Server address." $ port_arg "Server port."
      $ preset_arg $ sessions_arg
      $ conns_arg $ txns_arg $ mix_arg $ levels_arg $ accounts_arg $ hot_arg
      $ ops_arg $ think_arg $ seed_arg $ max_attempts_arg $ json_arg
      $ progress_arg)

(* {2 top — live dashboard against a running server} *)

let top host port interval once =
  let module P = Server.Protocol in
  let module J = Trace.Json in
  let module W = Telemetry.Window in
  let cl =
    try Server.Client.connect ~host ~port
    with Unix.Unix_error (e, _, _) ->
      Fmt.epr "top: cannot connect to %s:%d: %s@." host port
        (Unix.error_message e);
      exit 1
  in
  let seen = ref false in
  let scrape () =
    match Server.Client.request ~timeout_s:5.0 cl ~sid:0 P.Stats with
    | Ok (P.Stats_resp body) -> (
      match J.parse body with
      | Ok j ->
        seen := true;
        j
      | Error e ->
        Fmt.epr "top: bad STATS JSON: %a@." J.pp_error e;
        exit 1)
    | Ok _ ->
      Fmt.epr "top: unexpected reply to STATS@.";
      exit 1
    | Error msg ->
      if !seen then begin
        (* the server drained away mid-watch; that is a normal ending *)
        Fmt.pr "top: server gone (%s)@." msg;
        exit 0
      end
      else begin
        Fmt.epr "top: %s@." msg;
        exit 1
      end
  in
  let num sec k =
    Option.value ~default:0
      (Option.bind (Option.bind sec (J.member k)) J.to_int_opt)
  in
  let fnum sec k =
    Option.value ~default:0.
      (Option.bind (Option.bind sec (J.member k)) J.to_float_opt)
  in
  let render ?prev j =
    let b = Buffer.create 1024 in
    let line fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n')
        fmt
    in
    let sample = Option.bind (J.member "metrics" j) W.of_json in
    let cert = J.member "certifier" j in
    let sched = J.member "scheduler" j in
    let srv = J.member "server" j in
    let draining =
      Option.value ~default:false
        (Option.bind (Option.bind srv (J.member "draining")) J.to_bool_opt)
    in
    let clock =
      let tm = Unix.localtime (fnum (Some j) "at") in
      Printf.sprintf "%02d:%02d:%02d" tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    in
    line "isolation_lab top — %s:%d — %s%s" host port clock
      (if draining then "  DRAINING" else "");
    (match sample with
    | None -> line "  (malformed metrics section)"
    | Some s ->
      line
        "  totals    committed %d  aborted %d  retries %d  giveups %d  \
         deadlocks %d  dooms %d"
        s.W.committed s.W.aborted s.W.retries s.W.giveups s.W.deadlocks
        s.W.certifier_aborts;
      (match prev with
      | None -> if not once then line "  interval  (first scrape)"
      | Some p ->
        let r = W.delta p s in
        line "  interval  %s" (Fmt.str "%a" W.pp_rates r);
        if r.W.d_aborted_by <> [] then
          line "  aborts    %s"
            (String.concat "  "
               (List.map
                  (fun (k, n) -> Printf.sprintf "%s %d" k n)
                  r.W.d_aborted_by)));
      if s.W.per_level <> [] then begin
        line "  by level";
        List.iter
          (fun (slug, c, a, d) ->
            line "    %-24s committed %-8d aborted %-8d doomed %d" slug c a d)
          s.W.per_level
      end);
    (match cert with
    | None -> ()
    | Some _ ->
      line
        "  certifier nodes %d  edges %d  queue %d  pending %d  cycles %d  \
         dooms %d  misses %d  tolerated %d"
        (num cert "nodes") (num cert "edges") (num cert "queue")
        (num cert "pending") (num cert "cycles") (num cert "dooms")
        (num cert "misses") (num cert "tolerated");
      let prune = Option.bind cert (J.member "prune") in
      if num prune "passes" > 0 then
        line "  pruned    %d nodes  %d eras  over %d passes"
          (num prune "nodes") (num prune "eras") (num prune "passes"));
    (match sched with
    | None -> ()
    | Some _ ->
      line
        "  scheduler runnable %d  parked %d  active %d  wakes %d  wake wait \
         mean %.0fus max %.0fus"
        (num sched "runnable") (num sched "parked")
        (num sched "sessions_active") (num sched "wakes")
        (fnum sched "wake_wait_mean_us")
        (fnum sched "wake_wait_max_us"));
    (match srv with
    | None -> ()
    | Some _ ->
      line "  server    conns %d  sessions %d  frames %d  proto_errs %d"
        (num srv "conns") (num srv "sessions") (num srv "frames")
        (num srv "protocol_errors"));
    line "  storage   wal %d records  history %d actions"
      (num (Some j) "wal_entries")
      (num (Some j) "history_len");
    (match J.member "wal" j with
    | None -> ()
    | Some _ as wal ->
      line
        "  wal       %d segments  %d bytes on disk  %d fsync batches  %d \
         checkpoints  %d truncated"
        (num wal "segments") (num wal "disk_bytes") (num wal "syncs")
        (num wal "checkpoints")
        (num wal "truncated_segments"));
    Buffer.contents b
  in
  if once then begin
    print_string (render (scrape ()));
    exit 0
  end
  else begin
    let rec loop prev =
      let j = scrape () in
      let sample = Option.bind (J.member "metrics" j) W.of_json in
      print_string "\027[2J\027[H";
      print_string (render ?prev j);
      flush stdout;
      Unix.sleepf (Float.max 0.1 interval);
      loop (match sample with Some _ -> sample | None -> prev)
    in
    loop None
  end

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print a single report and exit (no screen clearing; for \
             scripts and CI).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running server: polls the wire protocol's \
          STATS admin op and renders interval commit/abort rates, the \
          abort mix, per-level counts, and certifier, scheduler and \
          connection gauges.")
    Term.(
      const top $ host_arg "Server address." $ port_arg "Server port."
      $ interval_arg $ once_arg)

let explain_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by stress --trace.")
  in
  let txn_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "t"; "txn" ] ~docv:"TID"
          ~doc:"Show one transaction attempt's full timeline and events.")
  in
  let log_arg =
    Arg.(
      value & flag
      & info [ "log" ] ~doc:"Also print the merged event log.")
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"With --log, print only the newest N events.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-render a recorded trace: per-transaction timelines with phase \
          breakdowns, the paper-notation history, and — when the embedded \
          history exhibits anomalies — the annotated interleaving excerpt \
          behind each oracle witness.")
    Term.(const explain $ file_arg $ txn_arg $ log_arg $ limit_arg)

(* {2 scenarios / histories} *)

let list_scenarios () =
  List.iter
    (fun s ->
      Format.printf "%-18s (%s)  %s@." s.Workload.Scenario.id
        (P.name s.Workload.Scenario.phenomenon)
        s.Workload.Scenario.description)
    Workload.Catalog.all

let scenarios_cmd =
  Cmd.v
    (Cmd.info "scenarios" ~doc:"List the scenario catalog.")
    Term.(const list_scenarios $ const ())

let list_histories () =
  List.iter
    (fun ph ->
      let open Workload.Paper_histories in
      Format.printf "%-10s (section %s)  %s@." ph.name ph.section ph.text;
      Format.printf "  exhibits: %s@."
        (match Phenomena.Detect.exhibited ph.history with
        | [] -> "nothing"
        | ps -> String.concat ", " (List.map P.name ps)))
    Workload.Paper_histories.all

let histories_cmd =
  Cmd.v
    (Cmd.info "histories" ~doc:"List the paper's example histories verbatim.")
    Term.(const list_histories $ const ())

(* {2 levels / figure} *)

let levels () =
  List.iter
    (fun l ->
      Format.printf "%-26s" (L.name l);
      (match L.degree l with
      | Some d -> Format.printf " degree %d;" d
      | None -> ());
      if L.is_multiversion l then Format.printf " multiversion;";
      Format.printf " forbids: %s@."
        (String.concat ","
           (List.map P.name (Isolation.Spec.forbidden l))))
    L.all

let levels_cmd =
  Cmd.v (Cmd.info "levels" ~doc:"List the isolation levels and what they forbid.")
    Term.(const levels $ const ())

let figure () = print_string (Isolation.Lattice.render_figure ())

let figure_cmd =
  Cmd.v (Cmd.info "figure" ~doc:"Render the paper's Figure 2 hierarchy.")
    Term.(const figure $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "isolation_lab" ~version:"1.0.0"
       ~doc:
         "A laboratory for 'A Critique of ANSI SQL Isolation Levels' \
          (Berenson et al., SIGMOD 1995).")
    [ analyze_cmd; run_cmd; classify_cmd; scenario_cmd; stress_cmd;
      serve_cmd; loadgen_cmd; top_cmd; explain_cmd; scenarios_cmd;
      histories_cmd; levels_cmd; figure_cmd ]

let () = exit (Cmd.eval main_cmd)
