let () =
  Alcotest.run "rfloor"
    (Test_simplex_core.suites @ Test_milp.suites @ Test_device.suites
   @ Test_search.suites
   @ Test_core.suites @ Test_analysis.suites @ Test_baselines.suites
   @ Test_bitstream.suites
   @ Test_sdr.suites @ Test_runtime.suites @ Test_io.suites
   @ Test_differential.suites @ Test_formats.suites @ Test_trace.suites
  @ Test_metrics.suites @ Test_service.suites @ Test_concheck.suites
   @ Test_portfolio.suites @ Test_oracle.suites @ Test_obsv.suites @ Test_online.suites)
