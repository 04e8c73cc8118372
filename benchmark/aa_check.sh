#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on one build and prints, for
# each workload and end-to-end metric, the two medians over seeds, their
# spreads, and whether the second median stays within the metric's bound
# from BENCHMARK.json; then each workload's median and longest run time.
# Exits 1 if any metric is out of bound or any run failed.
#
#   benchmark/aa_check.sh [--seeds N] [--seconds S] [--smoke]
#
# --seeds   seeds per workload and pass (default 5)
# --seconds measured seconds per run (default: run_seconds)
# --smoke   tiny inputs; every workload finishes in a few seconds
#
# Run from anywhere inside the repository; results are kept in
# .bench_build/aa/, the drivers' progress output in .bench_build/aa/runs.log.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=5
seconds=""
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "usage: $0 [--seeds N] [--seconds S] [--smoke]" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  if [[ ${#smoke[@]} -gt 0 ]]; then
    seconds=1
  else
    seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  fi
fi
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

out=.bench_build/aa
mkdir -p "$out"
rm -f "$out"/pass1.jsonl "$out"/pass2.jsonl "$out"/runs.log
status=0
for pass in 1 2; do
  for w in $workloads; do
    for seed in $(seq 1 "$seeds"); do
      start=$(date +%s.%N)
      if ! line=$(python3 benchmark/run.py --workload "$w" --seed "$seed" \
                    --seconds "$seconds" --trace 0 "${smoke[@]}" \
                    2>>"$out/runs.log" | tail -n 1); then
        echo "FAILED: pass $pass $w seed $seed (see $out/runs.log)" >&2
        status=1
        continue
      fi
      wall=$(python3 -c "import sys; print(round($(date +%s.%N) - $start, 2))")
      echo "{\"workload\": \"$w\", \"seed\": $seed, \"wall_s\": $wall, \"result\": $line}" \
        >> "$out/pass$pass.jsonl"
      echo "pass $pass  $w  seed $seed  ${wall}s" >&2
    done
  done
done

python3 - "$out" <<'EOF' || status=1
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]

def load(path):
    runs = {}
    for line in open(path):
        rec = json.loads(line)
        w = runs.setdefault(rec["workload"], {})
        if not rec["result"].get("correct"):
            print("incorrect run: %s seed %d" % (rec["workload"], rec["seed"]))
            w["_incorrect"] = True
        w.setdefault("_wall", []).append(rec["wall_s"])
        for name, m in rec["result"]["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return runs

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0

a = load(out + "/pass1.jsonl")
b = load(out + "/pass2.jsonl")
bad = 0
print("%-22s %-14s %12s %12s %8s %8s %8s %6s  %s" % (
    "workload", "metric", "median1", "median2", "change", "spread1",
    "spread2", "bound", "verdict"))
for w in spec["workloads"]:
    name = w["name"]
    bad += a.get(name, {}).get("_incorrect", False) + b.get(name, {}).get("_incorrect", False)
    for m in metrics:
        va = a.get(name, {}).get(m["name"], [])
        vb = b.get(name, {}).get(m["name"], [])
        if not va or not vb:
            print("%-22s %-14s missing" % (name, m["name"]))
            bad += 1
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / ma if ma else 0.0
        worse = change if m["better"] == "lower" else -change
        ok = worse <= m["bound"]
        bad += not ok
        print("%-22s %-14s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s" % (
            name, m["name"], ma, mb, 100 * change, 100 * spread(va),
            100 * spread(vb), 100 * m["bound"], "within" if ok else "OUT"))
print()
print("%-22s %14s %14s" % ("workload", "run median s", "run max s"))
for w in spec["workloads"]:
    walls = a.get(w["name"], {}).get("_wall", []) + b.get(w["name"], {}).get("_wall", [])
    if walls:
        print("%-22s %14.1f %14.1f" % (w["name"], statistics.median(walls), max(walls)))
sys.exit(1 if bad else 0)
EOF
exit $status
