(* Every metric the benchmark prints: name, unit, and which direction is
   better.  BENCHMARK.json lists the same names; `perf.exe
   --list-metrics` prints this table so the two can be compared. *)

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit_ = { name; unit_; better }

(* Printed by every untraced run, on every workload. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "latency_p50_ms" "ms";
    m "latency_p90_ms" "ms";
    m ~better:`Higher "ops_per_s" "1/s";
    m "heap_mb" "MB";
  ]

(* Printed by every traced run, on every workload; a layer the workload
   never calls reads 0. *)
let per_layer =
  [
    (* self time per layer; with [self.unattributed_s] the rows add up
       to [trace.wall_s] *)
    m "self.device_s" "s";
    m "self.analysis_s" "s";
    m "self.core_s" "s";
    m "self.search_s" "s";
    m "self.milp_s" "s";
    m "self.online_s" "s";
    m "self.bench_s" "s";
    m "self.unattributed_s" "s";
    m "trace.wall_s" "s";
    (* milp: Simplex, Presolve, Branch_bound *)
    m "milp.root_lp_s" "s";
    m "milp.root_lp_iters" "count";
    m "milp.ms_per_iter" "ms";
    m "milp.child_lp_s" "s";
    m "milp.child_lp_iters" "count";
    m ~better:`Higher "milp.child_warm_served" "count";
    m ~better:`Higher "milp.warm_dual_ratio" "ratio";
    m "milp.refactor.periodic" "count";
    m "milp.refactor.stability" "count";
    m "milp.refactor.singular" "count";
    m "milp.refactor.warm" "count";
    m "milp.factorizations" "count";
    m "milp.ft_updates" "count";
    m "milp.presolve_s" "s";
    m "milp.bb_self_s" "s";
    m "milp.nodes" "count";
    m "milp.simplex_iters" "count";
    m "milp.promoted_mwords" "Mwords";
    (* search: Engine, Candidates *)
    m "search.candidates_s" "s";
    m "search.sdr_s" "s";
    m "search.sdr2_s" "s";
    m "search.sdr3_s" "s";
    m "search.waste_phase_s" "s";
    m "search.wirelength_phase_s" "s";
    m ~better:`Higher "search.nodes_per_s" "1/s";
    m "search.warm_seed_s" "s";
    (* core, analysis, device *)
    m "core.build_s" "s";
    m "core.decode_s" "s";
    m "analysis.lint_s" "s";
    m "analysis.audit_s" "s";
    m "device.partition_s" "s";
    (* online: Layout, Free_space, Defrag; bitstream: Relocate *)
    m "online.admit_ms.p50" "ms";
    m "online.admit_ms.p99" "ms";
    m "online.remove_ms.p50" "ms";
    m "online.plan_ms.p50" "ms";
    m "online.plan_ms.p99" "ms";
    m ~better:`Higher "online.plan_hit_ratio" "ratio";
    m "online.execute_ms.p50" "ms";
    m "online.mer_count.mean" "count";
    m "online.free_space_add_us" "us";
    m "online.free_space_remove_us" "us";
    m "online.moves" "count";
    m "online.reject_ratio" "ratio";
    m "online.promoted_mwords" "Mwords";
    m "bitstream.relocate_us" "us";
  ]
