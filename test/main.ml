(* Test entry point: every suite registered under one Alcotest runner. *)

let () =
  Alcotest.run "ansi_critique"
    [
      ("digraph", Test_digraph.suite);
      ("parser", Test_parser.suite);
      ("history", Test_history.suite);
      ("conflict", Test_conflict.suite);
      ("mv", Test_mv.suite);
      ("view", Test_view.suite);
      ("recoverability", Test_recoverability.suite);
      ("phenomena", Test_phenomena.suite);
      ("equivalence", Test_equivalence.suite);
      ("implications", Test_implications.suite);
      ("isolation", Test_isolation.suite);
      ("btree", Test_btree.suite);
      ("storage", Test_storage.suite);
      ("recovery", Test_recovery.suite);
      ("locking", Test_locking.suite);
      ("lock-engine", Test_lock_engine.suite);
      ("discipline", Test_discipline.suite);
      ("next-key", Test_next_key.suite);
      ("update-locks", Test_update_locks.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("mv-engine", Test_mv_engine.suite);
      ("mixed-method", Test_mixed_method.suite);
      ("timestamp-ordering", Test_to_engine.suite);
      ("executor", Test_executor.suite);
      ("db", Test_db.suite);
      ("script", Test_script.suite);
      ("sim", Test_sim.suite);
      ("scenarios", Test_scenarios.suite);
      ("classify", Test_classify.suite);
      ("properties", Test_properties.suite);
      ("runtime", Test_runtime.suite);
      ("graph", Test_graph.suite);
      ("certifier", Test_certifier.suite);
      ("mixed", Test_mixed.suite);
      ("striped", Test_striped.suite);
      ("trace", Test_trace.suite);
      ("fault", Test_fault.suite);
      ("outofcore", Test_outofcore.suite);
      ("protocol", Test_protocol.suite);
      ("server", Test_server.suite);
      ("telemetry", Test_telemetry.suite);
    ]
