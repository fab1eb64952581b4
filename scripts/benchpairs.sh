#!/usr/bin/env bash
# Runs the repository's benchmark (perfbench/) as alternating pairs of a
# parent commit and a change, and writes the trajectory row as JSON:
#
#   bash scripts/benchpairs.sh --out BENCH_23.json --pairs 10 --seconds 30 \
#       --workloads sample,train,serve_churn [--seed 1] [--parent REF] \
#       [--micro-parent FILE --micro-change FILE]
#   bash scripts/benchpairs.sh --compare BENCH_22.json BENCH_23.json
#
# The parent (default: HEAD when the working tree has uncommitted changes,
# HEAD^ otherwise) is exported with `git archive` into a temporary directory;
# the change is this checkout as it stands. Within a pair the side that runs
# first alternates, so a drifting host favours neither. For every workload
# the file holds each pair's six end-to-end metrics and noise diagnostics
# (host steal, process CPU, GC), and each side's median and quartiles.
# --micro-parent/--micro-change take `go test -bench -benchmem` output to
# cite beside them. --compare prints, per workload and metric, the change
# medians of two such files and their relative difference.
set -euo pipefail

usage() {
	sed -n '2,18p' "$0" >&2
	exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="" parent="" pairs=10 seconds=30 seed=1 workloads="sample" micro_parent="" micro_change=""
while [[ $# -gt 0 ]]; do
	case "$1" in
	--out) out="$2"; shift 2 ;;
	--parent) parent="$2"; shift 2 ;;
	--pairs) pairs="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--workloads) workloads="$2"; shift 2 ;;
	--micro-parent) micro_parent="$2"; shift 2 ;;
	--micro-change) micro_change="$2"; shift 2 ;;
	--compare)
		[[ $# -eq 3 ]] || usage
		exec python3 - "$2" "$3" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
print(f"{'workload':<12} {'metric':<14} {'A':>10} {'B':>10} {'B vs A':>8}")
for w in sorted(set(a["workloads"]) & set(b["workloads"])):
    sa, sb = a["workloads"][w]["summary"], b["workloads"][w]["summary"]
    for m in sa:
        x, y = sa[m]["change"]["median"], sb[m]["change"]["median"]
        d = f"{100 * (y - x) / x:+.1f}%" if x else "n/a"
        print(f"{w:<12} {m:<14} {x:>10.4g} {y:>10.4g} {d:>8}")
EOF
		;;
	*) usage ;;
	esac
done
[[ -n "$out" ]] || usage

cd "$root"
if [[ -z "$parent" ]]; then
	if [[ -n "$(git status --porcelain)" ]]; then parent=HEAD; else parent=HEAD^; fi
fi
parent_sha="$(git rev-parse "$parent")"
if [[ -n "$(git status --porcelain)" ]]; then change_sha=""; else change_sha="$(git rev-parse HEAD)"; fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_sha" | tar -x -C "$tmp/parent"

# run SIDE DIR WORKLOAD PAIR ORDER: one benchmark run; its last two JSON
# lines (diagnostics, result) are appended to runs.jsonl with the run's
# labels. A run whose output checks fail is kept, with correct: false.
run() {
	local lines
	lines="$(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^{' | tail -n 2)" || true
	python3 -c '
import json, sys
diag, res = (json.loads(l) for l in sys.argv[5].splitlines())
print(json.dumps({"side": sys.argv[1], "workload": sys.argv[2], "pair": int(sys.argv[3]), "order": int(sys.argv[4]), "diag": diag, "result": res}))
' "$1" "$3" "$4" "$5" "$lines" >>"$tmp/runs.jsonl"
	echo "$3 pair $4: $1 done" >&2
}

for w in ${workloads//,/ }; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run parent "$tmp/parent" "$w" "$i" 0
			run change "$root" "$w" "$i" 1
		else
			run change "$root" "$w" "$i" 0
			run parent "$tmp/parent" "$w" "$i" 1
		fi
	done
done

python3 - "$tmp/runs.jsonl" "$out" "$parent_sha" "$change_sha" "$(git rev-parse HEAD)" \
	"$(go env GOVERSION)" "${GOMAXPROCS:-$(nproc)}" "$seconds" "$seed" "$pairs" "$micro_parent" "$micro_change" <<'EOF'
import json, re, statistics, sys
runs_path, out, parent_sha, change_sha, head, gover, procs, seconds, seed, pairs, micro_p, micro_c = sys.argv[1:13]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}

runs = [json.loads(l) for l in open(runs_path)]
workloads = {}
for w in dict.fromkeys(r["workload"] for r in runs):
    rows = {}
    for r in (r for r in runs if r["workload"] == w):
        d = r["diag"]
        diag = {k: v for k, v in d.get("diagnostics", {}).items() if not isinstance(v, list)}
        rows.setdefault(r["pair"], {"first": None})[r["side"]] = {
            "metrics": {m: v["value"] for m, v in r["result"]["metrics"].items()},
            "correct": r["result"]["correct"],
            "attempted": r["result"].get("attempted"),
            "failed": r["result"].get("failed"),
            "diagnostics": diag,
            "setups_s": d.get("setups_s"),
        }
        if r["order"] == 0:
            rows[r["pair"]]["first"] = r["side"]
    pair_list = [rows[k] for k in sorted(rows)]
    summary = {}
    for m in better:
        p = [x["parent"]["metrics"][m] for x in pair_list]
        c = [x["change"]["metrics"][m] for x in pair_list]
        sign = 1 if better[m] == "higher" else -1
        qp, qc = quartiles(p), quartiles(c)
        summary[m] = {
            "better": better[m],
            "parent": qp,
            "change": qc,
            "delta_pct": 100 * (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else None,
            "change_wins": sum(1 for a, b in zip(p, c) if sign * (b - a) > 0),
            "pairs": len(p),
        }
    workloads[w] = {"pairs": pair_list, "summary": summary}

def micro(path):
    rows = {}
    if not path:
        return rows
    for line in open(path):
        f = line.split()
        if not f or not f[0].startswith("Benchmark") or len(f) < 4:
            continue
        name = re.sub(r"-\d+$", "", f[0])
        vals = {f[i + 1]: float(f[i]) for i in range(2, len(f) - 1, 2)}
        rows.setdefault(name, []).append(vals)
    return {n: {u: statistics.median(v[u] for v in vs if u in v) for u in vs[0]} | {"runs": len(vs)} for n, vs in rows.items()}

doc = {
    "parent_sha": parent_sha,
    "change_sha": change_sha or None,
    "change_base": head,
    "change_note": "" if change_sha else "uncommitted working tree on top of change_base",
    "go": gover,
    "gomaxprocs": int(procs),
    "seconds": int(seconds),
    "seed": int(seed),
    "pairs": int(pairs),
    "workloads": workloads,
    "micro": {"parent": micro(micro_p), "change": micro(micro_c)},
}
json.dump(doc, open(out, "w"), indent=1)
for w, v in workloads.items():
    for m, s in v["summary"].items():
        print(f"{w:<12} {m:<14} parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]"
              f"  change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]"
              f"  {s['delta_pct']:+.1f}%  wins {s['change_wins']}/{s['pairs']}")
EOF
