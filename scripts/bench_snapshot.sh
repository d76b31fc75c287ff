#!/usr/bin/env bash
# Records a dated microbenchmark snapshot (BENCH_<date>.json) so perf
# changes to the hot kernels (Pmf convolution, precompute, refsim) are
# visible in review diffs — and enforced by scripts/bench_compare.sh.
# Run from anywhere; builds the bench target if needed. Override the
# build tree with BUILD_DIR (default: build).
#
# Snapshots must be apples-to-apples: the script refuses to record from
# a non-Release tree (the committed trajectory is Release numbers).
# Set BENCH_ALLOW_NON_RELEASE=1 to record anyway — loudly marked.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
. scripts/bench_filter.sh
OUT="${OUT:-BENCH_$(date +%Y-%m-%d).json}"

if [ ! -x "${BUILD_DIR}/bench/microbench" ]; then
    # Fresh tree: configure Release so the snapshot is comparable.
    if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
        cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    fi
    cmake --build "${BUILD_DIR}" --target microbench -j >/dev/null
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
if [ "${BUILD_TYPE}" != "Release" ]; then
    if [ "${BENCH_ALLOW_NON_RELEASE:-0}" = "1" ]; then
        echo "warn: recording a snapshot from a '${BUILD_TYPE:-unknown}'" \
             "build — numbers are NOT comparable to the committed" \
             "Release trajectory" >&2
    else
        echo "error: ${BUILD_DIR} is configured as" \
             "'${BUILD_TYPE:-unknown}', not Release." >&2
        echo "  Use a Release tree, e.g.:" >&2
        echo "    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release" >&2
        echo "    BUILD_DIR=build-rel $0" >&2
        echo "  or set BENCH_ALLOW_NON_RELEASE=1 to record anyway." >&2
        exit 1
    fi
fi

"${BUILD_DIR}/bench/microbench" --json \
    "--benchmark_filter=${FILTER}" > "${OUT}"

# Stamp the cimloop build type into the snapshot context: the
# 'library_build_type' google-benchmark records is its OWN build flavor,
# which is why an earlier snapshot could claim 'debug' from a Release
# cimloop tree. bench_compare.sh reads this stamp.
python3 - "${OUT}" "${BUILD_TYPE:-unknown}" <<'EOF'
import json, sys
path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})["cimloop_build_type"] = build_type.lower()
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "wrote ${OUT}"
