(* Main test runner: aggregates the per-module suites. *)

let () =
  Alcotest.run "deepmc"
    [
      ("nvmir", Test_nvmir.suite);
      ("parser", Test_parser.suite);
      ("graphs", Test_graphs.suite);
      ("dsa", Test_dsa.suite);
      ("trace", Test_trace.suite);
      ("rules", Test_rules.suite);
      ("rules-oracle", Test_rules_oracle.suite);
      ("pmem", Test_pmem.suite);
      ("interp", Test_interp.suite);
      ("dynamic", Test_dynamic.suite);
      ("crash", Test_crash.suite);
      ("crash-space", Test_crash_space.suite);
      ("crash-oracle", Test_crash_oracle.suite);
      ("corpus", Test_corpus.suite);
      ("workloads", Test_workloads.suite);
      ("concurrent", Test_concurrent.suite);
      ("driver", Test_driver.suite);
      ("autofix", Test_autofix.suite);
      ("extensions", Test_extensions.suite);
      ("scoped", Test_scoped.suite);
      ("parallel", Test_parallel.suite);
      ("stream", Test_stream.suite);
      ("strand-store", Test_strand_store.suite);
      ("durability", Test_durability.suite);
      ("misc", Test_misc.suite);
      ("differential", Test_differential.suite);
      ("html", Test_html.suite);
      ("summary", Test_summary.suite);
      ("recover", Test_recover.suite);
      ("inject", Test_inject.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("explain", Test_explain.suite);
    ]
