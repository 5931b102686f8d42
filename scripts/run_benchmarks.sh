#!/usr/bin/env bash
# Runs the kernel-comparison benchmarks and assembles BENCH_kernels.json:
# old (scalar) vs new (block-kernel) rows for the kernel microbenchmarks,
# fig12 conditional histograms, and the fig14/15 parallel histogram batch.
# When the build contains qdv_tool, also runs the seeded `bombard` workload
# against an in-process query service and writes BENCH_service.json
# (p50/p95/p99 request latency + server coalescing counters). The zoom/pan
# pyramid workload (every request differentially verified pyramid-vs-exact
# before timing) lands in BENCH_pyramid.json.
#
#   scripts/run_benchmarks.sh <build-dir> [kernels.json] [service.json] [pyramid.json] [brush.json]
#
# Sizes scale via the usual QDV_BENCH_* environment variables; CI's smoke
# job runs with tiny sizes (the benchmarks assert kernel/reference result
# equality regardless of size, so the smoke run still verifies correctness).
set -euo pipefail

build_dir=${1:?usage: run_benchmarks.sh <build-dir> [kernels.json] [service.json] [pyramid.json] [brush.json]}
output=${2:-BENCH_kernels.json}
service_output=${3:-BENCH_service.json}
pyramid_output=${4:-BENCH_pyramid.json}
brush_output=${5:-BENCH_brush.json}
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

run() {
  local name=$1
  shift
  echo "[run_benchmarks] $name ..." >&2
  "$@" --json "$tmpdir/$name.json" > "$tmpdir/$name.txt"
  tail -n +1 "$tmpdir/$name.txt" | sed "s/^/[$name] /" >&2
}

run kernels "$build_dir/bench_kernels"
run fig12 "$build_dir/bench_fig12_conditional_hist"
run fig14_15 "$build_dir/bench_fig14_15_parallel_hist"

# Merge the per-bench JSON arrays into one object keyed by bench name.
{
  echo '{'
  echo "  \"host_threads\": ${QDV_THREADS:-$(nproc 2>/dev/null || echo 1)},"
  first=1
  for name in kernels fig12 fig14_15; do
    [ $first -eq 1 ] || echo ','
    first=0
    printf '  "%s":\n' "$name"
    sed 's/^/  /' "$tmpdir/$name.json" | printf '%s' "$(cat)"
  done
  echo
  echo '}'
} > "$output"

echo "[run_benchmarks] wrote $output" >&2

# Service workload: seeded concurrent bombard through the unix-socket line
# protocol (self-hosted server). Skipped when the build has no qdv_tool
# (QDV_BUILD_EXAMPLES=OFF).
if [ -x "$build_dir/qdv_tool" ]; then
  svc_data=${QDV_BENCH_DATA_DIR:-$tmpdir}/service_ds
  if [ ! -f "$svc_data/qdv_manifest.txt" ]; then
    echo "[run_benchmarks] generating service dataset ..." >&2
    "$build_dir/qdv_tool" generate "$svc_data" --preset bench \
      --particles "${QDV_BENCH_SERVICE_PARTICLES:-50000}" \
      --timesteps "${QDV_BENCH_SERVICE_TIMESTEPS:-6}" --seed 42 >&2
  fi
  echo "[run_benchmarks] bombard ..." >&2
  "$build_dir/qdv_tool" bombard "$svc_data" \
    --clients "${QDV_BENCH_SERVICE_CLIENTS:-8}" \
    --requests "${QDV_BENCH_SERVICE_REQUESTS:-200}" \
    --seed 42 --dup 0.5 --json "$service_output" >&2
  echo "[run_benchmarks] wrote $service_output" >&2

  # Zoom/pan pyramid workload: bombard's zoom scenario verifies every
  # distinct request pyramid-vs-exact (bit-identical or the run exits
  # nonzero) BEFORE timing, then reports the wire hit rate and the
  # pyramid-served vs forced-exact latency split. One client by default:
  # the point is the per-request pyramid-vs-exact latency gap, and on a
  # small host concurrent exact fallbacks time-slice against pyramid
  # serves, polluting the tail with scheduler noise that BENCH_service.json
  # already characterizes.
  echo "[run_benchmarks] bombard --scenario zoom ..." >&2
  "$build_dir/qdv_tool" bombard "$svc_data" \
    --scenario zoom \
    --clients "${QDV_BENCH_ZOOM_CLIENTS:-1}" \
    --requests "${QDV_BENCH_ZOOM_REQUESTS:-${QDV_BENCH_SERVICE_REQUESTS:-200}}" \
    --seed 42 --json "$pyramid_output" >&2
  echo "[run_benchmarks] wrote $pyramid_output" >&2

  # Linked-brushing workload (DESIGN.md §16): each client drives a named
  # brush through refine-then-query rounds against a fresh server, then a
  # second fresh server replays every composed predicate cold at the same
  # concurrency. Every cold count must match the brush-path count
  # bit-for-bit and the stale-cache tripwire must stay zero, or the run
  # exits nonzero. The JSON records the edit-then-query vs cold
  # re-execution p50/p99 split (speedup_p50 is the headline number).
  echo "[run_benchmarks] bombard --scenario brush ..." >&2
  "$build_dir/qdv_tool" bombard "$svc_data" \
    --scenario brush \
    --clients "${QDV_BENCH_BRUSH_CLIENTS:-4}" \
    --requests "${QDV_BENCH_BRUSH_EDITS:-64}" \
    --seed 42 --json "$brush_output" >&2
  echo "[run_benchmarks] wrote $brush_output" >&2
else
  echo "[run_benchmarks] no qdv_tool in $build_dir: skipping service bench" >&2
fi
