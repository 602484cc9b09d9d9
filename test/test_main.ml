let () =
  Alcotest.run "benchgen"
    [
      ("rank_set", Test_rank_set.suite);
      ("histogram", Test_histogram.suite);
      ("util", Test_util_misc.suite);
      ("engine", Test_engine.suite);
      ("fault", Test_fault.suite);
      ("collalg", Test_collalg.suite);
      ("scalatrace", Test_scalatrace.suite);
      ("merge_diff", Test_merge_diff.suite);
      ("compress", Test_compress_diff.suite);
      ("fastpath", Test_fastpath.suite);
      ("conceptual", Test_conceptual.suite);
      ("lowerdiff", Test_lowerdiff.suite);
      ("benchgen", Test_benchgen.suite);
      ("wildcert", Test_wildcard_cert.suite);
      ("pipeline", Test_pipeline.suite);
      ("extrap", Test_extrap.suite);
      ("codegen", Test_codegen.suite);
      ("fuzz", Test_fuzz.suite);
      ("check", Test_check.suite);
      ("trace_io", Test_trace_io.suite);
      ("salvage", Test_salvage.suite);
      ("timing", Test_timing.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
    ]
