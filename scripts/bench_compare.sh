#!/usr/bin/env bash
# Diffs a current microbench run against the committed BENCH_*.json
# trajectory and fails (exit 1) when any gated kernel regressed by more
# than BENCH_TOLERANCE_PCT percent. This is what makes the perf
# trajectory ENFORCED rather than just recorded.
#
# Usage: bench_compare.sh [-b baseline.json] [-c current.json] [-o report]
#   -b  baseline snapshot (default: newest git-tracked BENCH_*.json)
#   -c  current snapshot (default: run ${BUILD_DIR}/bench/microbench now)
#   -o  report file (default: ${BENCH_REPORT}, falling back to
#       ${BUILD_DIR}/bench_compare_report.txt so the work tree stays
#       clean — reports are build products, not sources)
#
# Env knobs:
#   BENCH_TOLERANCE_PCT  allowed slowdown per gated kernel (default 15;
#                        CI uses a looser value — runner hardware varies)
#   BENCH_GATE_REGEX     anchored regex of gated benchmark names
#   BUILD_DIR            build tree used when -c is not given
#
# Exit codes: 0 ok, 1 regression, 2 usage/misconfiguration.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
. scripts/bench_filter.sh
TOLERANCE="${BENCH_TOLERANCE_PCT:-15}"
GATE_REGEX="${BENCH_GATE_REGEX:-^BM_(PmfConvolveLattice|PmfSliceMixture|Precompute|PrecomputeArena|LatticeConvolveSimd|RefsimGnormWalk|RefSimValueLevel|Evaluate|MapperSample|NestAnalysis)$}"
REPORT="${BENCH_REPORT:-${BUILD_DIR}/bench_compare_report.txt}"

BASELINE=""
CURRENT=""
while getopts "b:c:o:h" opt; do
    case "${opt}" in
        b) BASELINE="${OPTARG}" ;;
        c) CURRENT="${OPTARG}" ;;
        o) REPORT="${OPTARG}" ;;
        h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) exit 2 ;;
    esac
done

if [ -z "${BASELINE}" ]; then
    # Newest snapshot the repo has COMMITTED, so a snapshot freshly
    # written into the work tree never becomes its own baseline.
    BASELINE="$(git ls-files 'BENCH_*.json' 2>/dev/null | sort | tail -1)"
    if [ -z "${BASELINE}" ]; then
        BASELINE="$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -1)"
    fi
fi
if [ -z "${BASELINE}" ] || [ ! -f "${BASELINE}" ]; then
    echo "error: no baseline BENCH_*.json found (commit one with" \
         "scripts/bench_snapshot.sh or pass -b)" >&2
    exit 2
fi

CLEANUP=""
if [ -z "${CURRENT}" ]; then
    if [ ! -x "${BUILD_DIR}/bench/microbench" ]; then
        echo "error: ${BUILD_DIR}/bench/microbench not built (build it" \
             "or pass -c current.json)" >&2
        exit 2
    fi
    CURRENT="$(mktemp)"
    CLEANUP="${CURRENT}"
    trap '[ -n "${CLEANUP}" ] && rm -f "${CLEANUP}"' EXIT
    "${BUILD_DIR}/bench/microbench" --json \
        "--benchmark_filter=${FILTER}" > "${CURRENT}"
fi

mkdir -p "$(dirname "${REPORT}")"
BENCH_BASELINE_PATH="${BASELINE}" BENCH_CURRENT_PATH="${CURRENT}" \
BENCH_TOLERANCE_PCT="${TOLERANCE}" BENCH_GATE_REGEX="${GATE_REGEX}" \
BENCH_REPORT_PATH="${REPORT}" python3 - <<'EOF'
import json, os, re, sys

tol = float(os.environ["BENCH_TOLERANCE_PCT"])
gate = re.compile(os.environ["BENCH_GATE_REGEX"])
base_path = os.environ["BENCH_BASELINE_PATH"]
cur_path = os.environ["BENCH_CURRENT_PATH"]
report_path = os.environ["BENCH_REPORT_PATH"]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        if b.get("error_occurred"):
            continue
        out[b["name"]] = float(b["real_time"]) * UNIT_NS.get(
            b.get("time_unit", "ns"), 1.0)
    return doc.get("context", {}), out

base_ctx, base = load(base_path)
cur_ctx, cur = load(cur_path)

lines = []
lines.append(f"bench_compare: baseline={base_path} current={cur_path}")
lines.append(f"tolerance: +{tol:g}% on gated kernels "
             f"(gate: {os.environ['BENCH_GATE_REGEX']})")
bt = str(base_ctx.get("cimloop_build_type",
                      base_ctx.get("library_build_type", "unknown")))
if bt.lower() != "release":
    lines.append(f"WARNING: baseline records build type '{bt}' — "
                 "numbers may not be apples-to-apples")

regressions = []
gated_seen = 0
rows = []
for name in sorted(set(base) | set(cur)):
    gated = bool(gate.match(name))
    if name not in cur:
        rows.append((name, base[name], None, None, gated,
                     "missing from current run"))
        continue
    if name not in base:
        rows.append((name, None, cur[name], None, gated,
                     "new (not in baseline)"))
        continue
    b, c = base[name], cur[name]
    delta = (c - b) / b * 100.0 if b > 0 else 0.0
    verdict = "ok"
    if gated:
        gated_seen += 1
        if delta > tol:
            verdict = "REGRESSED"
            regressions.append((name, delta))
        elif delta < -tol:
            verdict = "improved"
    rows.append((name, b, c, delta, gated, verdict))

def fmt_ns(v):
    if v is None:
        return "-"
    return f"{v:.1f}"

w = max((len(r[0]) for r in rows), default=10)
lines.append(f"{'benchmark':<{w}}  {'base(ns)':>12}  {'cur(ns)':>12}  "
             f"{'delta':>8}  gate  verdict")
for name, b, c, delta, gated, verdict in rows:
    d = f"{delta:+.1f}%" if delta is not None else "-"
    g = "*" if gated else " "
    lines.append(f"{name:<{w}}  {fmt_ns(b):>12}  {fmt_ns(c):>12}  "
                 f"{d:>8}  {g:>4}  {verdict}")

if gated_seen == 0:
    lines.append("ERROR: no gated kernel present in both snapshots — "
                 "gate regex or snapshots are misconfigured")
if regressions:
    lines.append("")
    lines.append(f"FAIL: {len(regressions)} gated kernel(s) regressed "
                 f"beyond +{tol:g}%:")
    for name, delta in regressions:
        lines.append(f"  {name}: {delta:+.1f}%")
    lines.append("If this slowdown is intentional (a feature that costs "
                 "cycles), re-record the trajectory with "
                 "scripts/bench_snapshot.sh and commit the new "
                 "BENCH_<date>.json alongside the change; in CI, apply "
                 "the 'perf-regression-accepted' label to the PR and "
                 "note the justification in the description.")
else:
    lines.append("")
    lines.append("OK: all gated kernels within tolerance")

text = "\n".join(lines) + "\n"
sys.stdout.write(text)
with open(report_path, "w") as f:
    f.write(text)
if gated_seen == 0:
    sys.exit(2)
sys.exit(1 if regressions else 0)
EOF
