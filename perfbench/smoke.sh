#!/bin/sh
# Smoke run of the benchmark: every workload at 1/20 scale, untraced and
# traced.  Each run must pass its correctness checks and print exactly
# the metric names and units BENCHMARK.json lists for its mode.
#
#   sh perfbench/smoke.sh        # from the root of a checkout, about 20 s
set -eu

sh perfbench/run.sh --list-metrics >/dev/null
exe=./.bench_build/default/perfbench/perf.exe
out=.bench_build/smoke.out

for w in table2-milp table2-comb online-churn; do
  for t in 0 1; do
    "$exe" --workload "$w" --seed 1 --seconds 1 --trace "$t" --scale 0.05 >"$out"
    tail -n 1 "$out" | python3 -c '
import json, sys
mode, workload = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["end_to_end" if mode == "0" else "per_layer"]}
got = json.loads(sys.stdin.read())
have = {k: v["unit"] for k, v in got["metrics"].items()}
if have != want:
    sys.exit("%s trace=%s: metric names or units differ from BENCHMARK.json: %s"
             % (workload, mode, sorted(set(have.items()) ^ set(want.items()))))
if not got["correct"]:
    sys.exit("%s trace=%s: a correctness check failed" % (workload, mode))
print("ok  %-15s trace=%s  attempted %d" % (workload, mode, got["attempted"]))
' "$t" "$w"
  done
done
