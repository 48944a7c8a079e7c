#!/usr/bin/env bash
# Full local verification: a Release build + test run, then an
# address+undefined sanitizer build + test run. Mirrors what CI expects.
#
#   tools/check.sh            # both passes, then tools/dead_code.sh
#   tools/check.sh --fast     # Release pass only
#   PAGODA_SANITIZE="address" tools/check.sh  # override the sanitizer list
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
SANITIZERS="${PAGODA_SANITIZE:-address;undefined}"

run_pass() {
  local dir="$1"
  shift
  echo "==> configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> test ${dir}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

cluster_smoke() {
  local dir="$1"
  echo "==> cluster smoke ${dir}"
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 >/dev/null
  # Bad cluster flag values must fail fast and print the valid choices.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --policy=bogus \
      >/dev/null 2>&1; then
    echo "error: bad --policy unexpectedly accepted" >&2
    exit 1
  fi
  # pagoda_cli exits nonzero here by design; || true keeps pipefail happy.
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --policy=bogus 2>&1 || true) |
    grep -q "invalid value for --policy.*round-robin"
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --arrival=sawtooth 2>&1 || true) |
    grep -q "poisson:RATE"
  # An unknown workload is a usage error (exit 1) naming the valid ones.
  local wl_rc=0
  "${dir}/tools/pagoda_cli" --workload=NOPE >/dev/null 2>&1 || wl_rc=$?
  if [[ "${wl_rc}" != 1 ]]; then
    echo "error: pagoda_cli --workload=NOPE exited ${wl_rc}, want 1" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=NOPE 2>&1 || true) |
    grep -q "unknown --workload 'NOPE'.* MM .*MPE"
  # Out-of-range and non-finite values must end in the CLI's usage error
  # (exit 1, or 2 for an unparsable number), never in an internal CHECK abort.
  # The case comes first: the first occurrence of a flag wins, so a case may
  # override the defaults after it (--tasks).
  local args rc out
  for args in "--gpus=2 --oversub=1e9" "--rows=0" "--rows=100000" \
      "--rows=2147483647" "--blocks=0" "--blocks=2000000000" \
      "--task-threads=0" "--task-threads=100000" \
      "--gpus=2 --arrival=poisson:nan" "--gpus=2 --arrival=poisson:inf" \
      "--gpus=2 --arrival=diurnal:1000:inf" "--gpus=2 --faults=degrade:1:1:nan" \
      "--gpus=2 --arrival=poisson:1e-12" "--gpus=2 --arrival=poisson:1e-300" \
      "--gpus=2 --arrival=poisson:1e-6" "--gpus=2 --arrival=bursty:1000:1e300" \
      "--gpus=2 --arrival=diurnal:1000:1e300" "--gpus=2 --arrival=poisson:1e-3" \
      "--gpus=2 --slo-us=nan" "--gpus=2 --task-timeout-us=nan" \
      "--tasks=-5" "--tasks=0" "--batch=-1" \
      "--gpus=2 --queue-limit=-3" "--gpus=2 --queue-limit=99999999999" \
      "--gpus=2 --retry-budget=99999999999" \
      "--gpus=2 --faults=degrade:100:100:0.5:7" \
      "--gpus=2 --faults=crash:2:100 --task-timeout-us=100" \
      "--gpus=2 --migrate --power=default --autoscale=0.6:0.3:0.8:3" \
      "--gpus=2 --migrate --power=default --resize=100:3" \
      "--gpus=2 --faults=crash:0:1e300 --task-timeout-us=1" \
      "--gpus=2 --slo-us=1e300" "--gpus=2 --task-timeout-us=1e300" \
      "--gpus=2 --arrival=bursty:1e-2:4" \
      "--tasks" "--seed" "--gpus=99999999999" "--policy=least-loaded" \
      "--arrival=poisson:1000" "--slo-us=5000" "--queue-limit=3" \
      "--workload=DCT --task-threads=1024 --tasks=64" \
      "--workload=CONV --input=46341" "--workload=MB --input=46341" \
      "--workload=DCT --input=30892" "--workload=MM --input=30892" \
      "--workload=MPE --input=30892"; do
    rc=0
    # shellcheck disable=SC2086  # args is a deliberate word list
    "${dir}/tools/pagoda_cli" ${args} --workload=MM --tasks=32 \
        >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" != 1 && "${rc}" != 2 ]]; then
      echo "error: pagoda_cli ${args} exited ${rc}, want a usage error" >&2
      exit 1
    fi
  done
  # Faults + a shrink-then-grow resize must finish: a node returned to
  # service reopens its slot queue, so nothing redispatches onto it forever.
  rc=0
  timeout 60 "${dir}/tools/pagoda_cli" --workload=DCT --irregular --gpus=2 \
      --tasks=512 --faults=task:0.05 --task-timeout-us=4000 --migrate \
      --power=default --resize=100:1,1200:2 >/dev/null || rc=$?
  if [[ "${rc}" != 0 ]]; then
    echo "error: faults + resize run exited ${rc}, want 0" >&2
    exit 1
  fi
  # Oversubscribed with a crash: a spawn may land in a TaskTable entry whose
  # completion the crash swallowed. The stale record waits out its deadline
  # and every admitted request completes or is shed.
  rc=0
  out=$(timeout 60 "${dir}/tools/pagoda_cli" --workload=MM --gpus=3 \
      --oversub=4 --rows=3 --tasks=1024 --arrival=poisson:3e6 \
      --faults=crash:1:150:200,task:0.02 --task-timeout-us=1500 --metrics) ||
      rc=$?
  if [[ "${rc}" != 0 ]]; then
    echo "error: oversub + crash run exited ${rc}, want 0" >&2
    exit 1
  fi
  awk '$1 == "cluster.requests.admitted" {a = $2}
       $1 == "cluster.requests.completed" {c = $2}
       $1 == "cluster.requests.shed" {s = $2}
       END {exit !(a > 0 && c + s == a)}' <<<"${out}" || {
    echo "error: oversub + crash run lost requests" >&2
    exit 1
  }
  # A healthy PCIe-bound node is busy, not dead: with nothing injected the
  # watchdog must declare no death.
  out=$("${dir}/tools/pagoda_cli" --workload=DCT --gpus=2 --tasks=512 \
      --task-timeout-us=4000 --metrics)
  grep -Eq "fault\.detected\.node_deaths +0$" <<<"${out}"
}

qos_smoke() {
  local dir="$1"
  echo "==> qos smoke ${dir}"
  # Every policy must drive the cluster end-to-end.
  for pol in fifo priority edf wfq; do
    "${dir}/tools/pagoda_cli" --workload=MM --tasks=256 --gpus=2 \
        --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 \
        --sched-policy="${pol}" >/dev/null
  done
  # Per-class sched.* metrics must appear once any QoS flag arms them.
  # (Capture then grep: grep -q closing the pipe early would SIGPIPE the
  # CLI under pipefail.)
  local out
  out=$("${dir}/tools/pagoda_cli" --workload=MM --tasks=256 --gpus=1 \
      --sched-policy=priority --class=interactive --metrics)
  grep -q "sched.interactive.completed" <<<"${out}"
  # Single-device Pagoda takes the same flags (spawn + claim order).
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=256 --sched-policy=edf \
      >/dev/null
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=256 --sched-policy=wfq \
      --weights=5,2,1 >/dev/null
  out=$("${dir}/tools/pagoda_cli" --list-workloads)
  grep -q "SLUD" <<<"${out}"
  # Strict validation: bad values fail fast and print the choices.
  if "${dir}/tools/pagoda_cli" --workload=MM --sched-policy=sjf \
      >/dev/null 2>&1; then
    echo "error: bad --sched-policy unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=MM --sched-policy=sjf 2>&1 || true) |
    grep -q "invalid value for --sched-policy"
  if "${dir}/tools/pagoda_cli" --workload=MM --sched-policy=edf \
      --weights=1,2,3 >/dev/null 2>&1; then
    echo "error: --weights without wfq unexpectedly accepted" >&2
    exit 1
  fi
  if "${dir}/tools/pagoda_cli" --workload=MM --sched-policy=wfq \
      --weights=1,0,1 >/dev/null 2>&1; then
    echo "error: non-positive --weights unexpectedly accepted" >&2
    exit 1
  fi
}

fault_smoke() {
  local dir="$1"
  echo "==> fault-injection smoke ${dir}"
  # A nonzero plan — 5% task faults, a wedge source, and a mid-run node
  # crash with recovery — must complete or deliberately shed every admitted
  # request exactly once (the dispatcher CHECKs its ledger on drain).
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 \
      --faults=task:0.05,wedge:0.01,crash:1:2000:3000 \
      --task-timeout-us=3000 --metrics >/dev/null
  # Compute mode verifies retried tasks against the CPU references.
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=128 --gpus=2 --compute \
      --faults=task:0.1,xfer:0.05 --task-timeout-us=3000 >/dev/null
  # Bad fault specs must fail fast and print the grammar.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --faults=bogus:1 \
      >/dev/null 2>&1; then
    echo "error: bad --faults unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --faults=bogus:1 2>&1 || true) |
    grep -q "valid forms"
  # Wedge/crash plans without a task deadline are unrecoverable: rejected.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --faults=wedge:0.1 \
      >/dev/null 2>&1; then
    echo "error: wedge plan without --task-timeout-us unexpectedly accepted" >&2
    exit 1
  fi
  # An explicit --slo-us=0 is ambiguous and must be refused.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --slo-us=0 \
      >/dev/null 2>&1; then
    echo "error: --slo-us=0 unexpectedly accepted" >&2
    exit 1
  fi
}

trace_smoke() {
  local dir="$1"
  echo "==> trace smoke ${dir}"
  # End-to-end span pipeline: a faulty cluster run dumps spans, the offline
  # analyzer re-checks the bucket-sum invariant and prints per-class
  # attribution; the dump must be byte-identical across reruns.
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 \
      --faults=task:0.05,xfer:0.02 --trace-spans=/tmp/pagoda_spans_a.json \
      >/dev/null
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 \
      --faults=task:0.05,xfer:0.02 --trace-spans=/tmp/pagoda_spans_b.json \
      >/dev/null
  cmp /tmp/pagoda_spans_a.json /tmp/pagoda_spans_b.json
  local out
  out=$("${dir}/tools/trace_report" --in=/tmp/pagoda_spans_a.json --top=3)
  grep -q "class=" <<<"${out}"          # non-empty attribution table
  grep -q "critical path:" <<<"${out}"  # top-K slowest with paths
  rm -f /tmp/pagoda_spans_a.json /tmp/pagoda_spans_b.json
  # Unwritable output paths must fail fast with exit 2, BEFORE the run.
  local rc=0
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=32 --gpus=2 \
      --trace-spans=/nonexistent-dir/x.json >/dev/null 2>&1 || rc=$?
  if [[ "${rc}" != 2 ]]; then
    echo "error: unwritable --trace-spans path exited ${rc}, want 2" >&2
    exit 1
  fi
  rc=0
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=32 \
      --metrics=/nonexistent-dir/x.json >/dev/null 2>&1 || rc=$?
  if [[ "${rc}" != 2 ]]; then
    echo "error: unwritable --metrics path exited ${rc}, want 2" >&2
    exit 1
  fi
}

fleet_smoke() {
  local dir="$1"
  echo "==> fleet smoke ${dir}"
  # A 64-node fleet must run end-to-end on the single event queue.
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=256 --gpus=64 \
      --arrival=poisson:2000000 >/dev/null
  # The simulation worker pool and the sharded core are gone: stale scripts
  # that still pass their flags must fail loudly, not run silently.
  for stale in --threads=4 --sim-core=global; do
    if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 "${stale}" \
        >/dev/null 2>&1; then
      echo "error: removed flag ${stale} unexpectedly accepted" >&2
      exit 1
    fi
  done
}

power_smoke() {
  local dir="$1"
  echo "==> power smoke ${dir}"
  # Metering only: default spec + static governor at floor 0 keeps timing
  # identical to a power-off run while exporting the energy account.
  local out
  out=$("${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=least-loaded --arrival=poisson:150000 --slo-us=5000 \
      --power=default --metrics)
  grep -q "power.fleet.energy_j" <<<"${out}"
  # The full strategy: energy-min packing + dvfs + S-state sleep on diurnal
  # traffic; the governor must park the surplus node during troughs.
  out=$("${dir}/tools/pagoda_cli" --workload=MM --tasks=2048 --gpus=2 \
      --policy=energy-min --arrival=diurnal:800000:8:20000 --slo-us=5000 \
      --power=default:floor=3 --governor=dvfs --metrics)
  grep -q "power.governor.nodes_slept" <<<"${out}"
  # powercap: the governor and the power-cap placement share the budget.
  "${dir}/tools/pagoda_cli" --workload=MM --tasks=512 --gpus=2 \
      --policy=power-cap --arrival=poisson:150000 --slo-us=5000 \
      --power=default:floor=3 --governor=powercap --power-cap-watts=150 \
      >/dev/null
  # --list-policies enumerates placements, sched policies and governors.
  out=$("${dir}/tools/pagoda_cli" --list-policies)
  grep -q "energy-min" <<<"${out}"
  grep -q "powercap" <<<"${out}"
  grep -q "wfq" <<<"${out}"
  # Strict validation: bad specs fail fast and point at the catalog.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --power=bogus \
      >/dev/null 2>&1; then
    echo "error: bad --power unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --power=bogus 2>&1 || true) |
    grep -q "default\[:floor=N\]"
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --governor=dvfs \
      >/dev/null 2>&1; then
    echo "error: --governor without --power unexpectedly accepted" >&2
    exit 1
  fi
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --power=default \
      --power-cap-watts=100 >/dev/null 2>&1; then
    echo "error: --power-cap-watts without an enforcer unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --power=default \
      --governor=bogus 2>&1 || true) | grep -q "list-policies"
}

migrate_smoke() {
  local dir="$1"
  echo "==> migrate smoke ${dir}"
  # Migrate-not-shed + autoscaler end-to-end: the utilization resizer must
  # sleep the surplus, checkpoint whatever the drains catch, and the
  # migrate.* ledger must export.
  local out
  out=$("${dir}/tools/pagoda_cli" --workload=MM --tasks=2048 --gpus=4 \
      --policy=least-outstanding --arrival=poisson:150000 --slo-us=5000 \
      --migrate --power=default --autoscale=0.6 --metrics)
  grep -q "migrate.checkpoints" <<<"${out}"
  grep -q "migrate.autoscale.nodes_slept" <<<"${out}"
  # An explicit rolling-resize plan must fire both steps.
  out=$("${dir}/tools/pagoda_cli" --workload=MM --tasks=2048 --gpus=4 \
      --policy=least-outstanding --arrival=poisson:150000 --slo-us=5000 \
      --migrate --power=default --resize=4000:2,9000:4 --metrics)
  grep -qE "migrate\.autoscale\.resize_events +2" <<<"${out}"
  # Strict validation: the elastic flags need their prerequisite planes.
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --autoscale=0.6 \
      >/dev/null 2>&1; then
    echo "error: --autoscale without --migrate unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --autoscale=0.6 2>&1 || true) |
    grep -q -- "--migrate"
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --migrate \
      --autoscale=0.6 >/dev/null 2>&1; then
    echo "error: --autoscale without --power unexpectedly accepted" >&2
    exit 1
  fi
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --migrate \
      --power=default --autoscale=1.5 >/dev/null 2>&1; then
    echo "error: bad --autoscale spec unexpectedly accepted" >&2
    exit 1
  fi
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --migrate \
      --power=default --resize=9000:2,4000:4 >/dev/null 2>&1; then
    echo "error: non-increasing --resize plan unexpectedly accepted" >&2
    exit 1
  fi
  if "${dir}/tools/pagoda_cli" --workload=MM --gpus=2 --migrate \
      --power=default --policy=energy-min --autoscale=0.6 \
      >/dev/null 2>&1; then
    echo "error: --autoscale with energy-min unexpectedly accepted" >&2
    exit 1
  fi
  # The elastic flags are part of the --list-policies catalog.
  ("${dir}/tools/pagoda_cli" --list-policies) | grep -q -- "--autoscale=SPEC"
}

vres_smoke() {
  local dir="$1"
  echo "==> vres smoke ${dir}"
  # Oversubscribed single-device run: the fragmentation gauges armed with
  # the vres plane must export, and compute mode must still verify against
  # the CPU references.
  local out
  out=$("${dir}/tools/pagoda_cli" --workload=DCT --tasks=256 --irregular \
      --oversub=1.5 --metrics)
  grep -q "pagoda.shmem.internal_frag_bytes" <<<"${out}"
  grep -q "pagoda.shmem.external_frag" <<<"${out}"
  "${dir}/tools/pagoda_cli" --workload=DCT --tasks=128 --irregular \
      --oversub=1.5 --compute >/dev/null
  # --oversub=1.0 keeps the plane dark: no vres-armed keys may appear (the
  # byte-identical-by-construction contract).
  out=$("${dir}/tools/pagoda_cli" --workload=DCT --tasks=256 --irregular \
      --metrics)
  if grep -q "pagoda.shmem.internal_frag_bytes" <<<"${out}"; then
    echo "error: --oversub=1 unexpectedly exported vres metrics" >&2
    exit 1
  fi
  # Strict validation: undersubscription and garbage fail fast.
  if "${dir}/tools/pagoda_cli" --workload=DCT --oversub=0.5 \
      >/dev/null 2>&1; then
    echo "error: --oversub=0.5 unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=DCT --oversub=0.5 2>&1 || true) |
    grep -q -- "--oversub must be a finite factor >= 1.0"
  if "${dir}/tools/pagoda_cli" --workload=DCT --oversub=abc \
      >/dev/null 2>&1; then
    echo "error: --oversub=abc unexpectedly accepted" >&2
    exit 1
  fi
  ("${dir}/tools/pagoda_cli" --workload=DCT --oversub=abc 2>&1 || true) |
    grep -q "invalid value for --oversub"
  # The footprint columns predict which workloads oversubscription helps.
  ("${dir}/tools/pagoda_cli" --list-workloads) | grep -q "shmem/blk"
}

bench_usage_smoke() {
  local dir="$1"
  echo "==> bench usage smoke ${dir}"
  # A bad bench argument is a usage error (exit 1) before anything runs,
  # never a CHECK abort or a failed allocation. A --tasks below a bench's
  # floor is one too: its gates cannot hold there.
  local args rc
  for args in "cluster_scaling --tasks=-5" "elastic_fleet --seeds=0" \
      "elastic_fleet --gpus=99999999999" "fleet_scale --tasks-per-node=0" \
      "occupancy_virt --threads=0" "qos_isolation --rate=-1" \
      "fault_recovery --tasks=0" "cluster_scaling --tasks=97" \
      "fault_recovery --tasks=632" "qos_isolation --tasks=316" \
      "energy_pareto --tasks=12" "elastic_fleet --tasks=4249" \
      "occupancy_virt --tasks=703"; do
    rc=0
    # shellcheck disable=SC2086  # args is a deliberate word list
    "${dir}/bench/"${args} --out=/tmp/pagoda_usage_smoke.json \
        >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" != 1 ]]; then
      echo "error: ${args} exited ${rc}, want 1" >&2
      exit 1
    fi
  done
  rm -f /tmp/pagoda_usage_smoke.json
  # Every table-driven binary's --help exits 0 and lists each option of its
  # table, as the source declares it.
  local src table bin help opt
  for src in tools/*.cpp bench/*.cpp; do
    table="${src}"
    if grep -q "BenchArgs args" "${src}"; then table=bench/bench_common.h; fi
    grep -q 'Option("' "${table}" || continue
    bin="${dir}/${src%.cpp}"
    help=$("${bin}" --help) || {
      echo "error: ${bin} --help failed" >&2
      exit 1
    }
    for opt in help $(grep -o 'Option("[a-z-]*"' "${table}" | cut -d'"' -f2); do
      if ! grep -qE -- "^  --${opt}(=|\[=| )" <<<"${help}"; then
        echo "error: ${bin} --help does not list --${opt}" >&2
        exit 1
      fi
    done
  done
}

vres_grep_clean() {
  # The virtual plane owns physical resources: only src/pagoda (the
  # backend) and src/vres (the facade) may name the buddy allocator or
  # construct a TaskTable. micro_components is the one sanctioned
  # exception — it benchmarks the physical backend in isolation.
  echo "==> vres layering grep"
  local hits
  hits=$(grep -rnE "\bShmemAllocator\b|\bTaskTable [a-z_]+\(" \
      --include="*.cpp" --include="*.h" src bench tools examples |
      grep -v "^src/pagoda/\|^src/vres/\|^bench/micro_components.cpp" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: physical resource structures touched outside src/pagoda + src/vres:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

power_grep_clean() {
  # Only src/power (the governor included) may move P/C/S states: the
  # mutator verbs must not appear anywhere else in the production tree.
  echo "==> power layering grep"
  local hits
  hits=$(grep -rnE "\b(set_p_state|step_c_deeper|enter_sleep|begin_wake)\b" \
      --include="*.cpp" --include="*.h" src bench tools examples |
      grep -v "^src/power/" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: power-state mutation outside src/power:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

fault_grep_clean() {
  # Recovery paths must never throw: failures flow through
  # fault::FailureCause values so a fault can never unwind the dispatcher
  # mid-ledger. Comment mentions of the word are fine; throw *statements*
  # are not.
  echo "==> fault no-throw grep"
  local hits
  hits=$(grep -rnE "\bthrow\b" --include="*.cpp" --include="*.h" \
      src/fault src/cluster |
      grep -vE "^[^:]+:[0-9]+: *//" | grep -vE "//.*\bthrow\b" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: naked throw in fault/recovery paths:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

sched_grep_clean() {
  # The sched layer owns every ordering decision: admission queues must be
  # sched::ReadyQueue (the raw counting semaphore has no policy hook), and
  # nothing outside src/sched may order on the QoS tags directly.
  echo "==> sched layering grep"
  local hits
  hits=$(grep -rn "sim::Semaphore" --include="*.cpp" --include="*.h" \
      src/cluster || true)
  if [[ -n "${hits}" ]]; then
    echo "error: raw semaphore admission queue in src/cluster (use sched::ReadyQueue):" >&2
    echo "${hits}" >&2
    exit 1
  fi
  hits=$(grep -rnE "(sched_class|deadline_us) *(<|>)=? " \
      --include="*.cpp" --include="*.h" src bench tools examples |
      grep -v "^src/sched/" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: ordering on QoS tags outside src/sched:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

engine_grep_clean() {
  # The engine::Session layer owns simulation bring-up: nothing outside
  # src/engine and src/sim (plus tests) may construct a sim::Simulation
  # directly.
  echo "==> engine layering grep"
  local hits
  hits=$(grep -rn "sim::Simulation sim;\|sim::Simulation sim(" \
      --include="*.cpp" --include="*.h" src bench examples tools |
      grep -v "^src/engine/\|^src/sim/" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: direct sim::Simulation construction outside the engine:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

copy_grep_clean() {
  # gpu::Stream owns every copy's landing order and fault verdict: outside
  # src/gpu/stream.h and src/pcie (plus tests), nothing may put a transfer
  # on the bus directly through PcieBus::copy/copy_checked or Link::transfer.
  echo "==> copy layering grep"
  local hits
  hits=$(grep -rnE "(\.|->)(copy|copy_checked|transfer)\(" \
      --include="*.cpp" --include="*.h" src bench tools examples |
      grep -v "^src/gpu/stream.h:\|^src/pcie/" || true)
  if [[ -n "${hits}" ]]; then
    echo "error: bus transfer issued outside gpu::Stream:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

event_grep_clean() {
  # An event body is one sim::Continuation (a function pointer and its
  # argument): the event queue and the Simulation's scheduling verbs must
  # not store or take a std::function.
  echo "==> event body grep"
  local hits
  hits=$(grep -n "std::function" src/sim/event_queue.h \
      src/sim/event_queue.cpp src/sim/simulation.h || true)
  if [[ -n "${hits}" ]]; then
    echo "error: std::function in the event queue or its scheduling verbs:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

scheduler_grep_clean() {
  # A scheduler pass runs in the scheduler warp's own frame (no sim::Task
  # per scan), and a claim pass orders its rows into scratch the caller
  # owns (Policy::order returns no std::vector).
  echo "==> scheduler pass grep"
  local hits
  hits=$({ grep -nE "sim::Task<[^>]*>[[:space:]]+scan" src/pagoda/master_kernel.h ||
             true
           grep -nE "std::vector<[^>]*>[[:space:]]+order[[:space:]]*\(" \
               src/sched/policy.h || true; })
  if [[ -n "${hits}" ]]; then
    echo "error: a scan-pass task frame or a vector-returning Policy::order:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

landing_grep_clean() {
  # A copy lands through one sim::Continuation, from Link up through
  # PcieBus and gpu::Stream to every caller: no completion in src/ is a
  # std::function<void()>, and the Pagoda runtime makes no shared handshake
  # record (a latch, a flag or an entry snapshot) per copy.
  echo "==> copy landing grep"
  local hits
  hits=$({ grep -rn "std::function<void()>" src || true
           grep -rnE "make_shared<(sim::Trigger|TaskEntry|bool)>" src/pagoda ||
             true; })
  if [[ -n "${hits}" ]]; then
    echo "error: closure or shared handshake on the copy path:" >&2
    echo "${hits}" >&2
    exit 1
  fi
}

fleet_gate() {
  # Fleet-scale gate: the 1 -> 1,024 node sweep (bench/fleet_scale) must
  # complete inside a wall-clock budget, and the 256- and 1,024-node points
  # must peak under RSS budgets (idle nodes back no shared-memory arenas,
  # copy-back mirrors, dispatcher records, executor warp frames, named
  # barriers or TaskTable parameter rows they never reached).
  # The sweep's JSON goes to /tmp, so a check run leaves the tree clean;
  # README says how to regenerate the committed BENCH_fleet.json.
  local dir="$1"
  local budget_s=120
  local rss_budget_256_mb=110
  local rss_budget_1024_mb=380
  local json=/tmp/pagoda_BENCH_fleet.json
  echo "==> fleet-scale gate (bench/fleet_scale, 1->1024 nodes)"
  local t0 t1 elapsed
  t0=$(date +%s%N)
  "${dir}/bench/fleet_scale" --out="${json}" >/dev/null
  t1=$(date +%s%N)
  elapsed=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.1f", (b-a)/1e9}')
  echo "    sweep completed in ${elapsed}s (budget ${budget_s}s)"
  if awk -v e="${elapsed}" -v b="${budget_s}" 'BEGIN{exit !(e > b)}'; then
    echo "error: fleet_scale sweep took ${elapsed}s, budget ${budget_s}s" >&2
    exit 1
  fi
  python3 -c '
import json, sys
sweep = {p["nodes"]: p for p in json.load(open(sys.argv[3]))["sweep"]}
ok = True
for nodes, budget in ((256, float(sys.argv[1])), (1024, float(sys.argv[2]))):
    if nodes not in sweep:
        print(f"    no {nodes}-node point in the sweep")
        ok = False
        continue
    rss = sweep[nodes]["peak_rss_mb"]
    print(f"    {nodes} nodes peak RSS {rss:.1f} MB (budget {budget:.0f} MB)")
    ok = ok and rss <= budget
sys.exit(0 if ok else 1)
' "${rss_budget_256_mb}" "${rss_budget_1024_mb}" "${json}" || {
    echo "error: fleet_scale peak RSS over budget (256 nodes ${rss_budget_256_mb} MB, 1024 nodes ${rss_budget_1024_mb} MB)" >&2
    exit 1
  }
}

trace_overhead_gate() {
  # Observability cost gate: perfbench reports obs.trace_overhead_x, the
  # traced/untraced sim.run_s ratio measured in one process, so host load
  # cancels out. The traced `planes` run (every plane armed, power included)
  # must be correct and cost at most 3x the untraced one.
  echo "==> trace overhead gate (perfbench planes --trace 1, <= 3x)"
  local out
  out=$(python3 perfbench/run.py --workload planes --seed 1 --seconds 10 \
      --trace 1 | tail -n 1)
  python3 -c '
import json, sys
r = json.loads(sys.argv[1])
ok, x = r["correct"], r["metrics"]["obs.trace_overhead_x"]["value"]
print(f"    correct={ok} obs.trace_overhead_x={x:.2f} (max 3)")
sys.exit(0 if ok is True and x <= 3.0 else 1)
' "${out}" || {
    echo "error: traced planes run is incorrect or costs more than 3x" >&2
    exit 1
  }
}

wallclock_gate() {
  # Host wall-clock regression gate on the hot path. Median of 3 Release
  # runs of fig5_overall --tasks=4096 must stay within 1.5x of the 1.136 s
  # median measured on a 4-core x86 host once Model-mode workloads stopped
  # generating payload (shapes only). The 5.0-5.3 s median of the build
  # that still filled payload fails it. Before that re-base the budget was
  # a raw 6.68 s (8.357 s pre-engine-refactor baseline / 1.25).
  # The first run's stdout must match tests/golden/fig5_overall_4096.txt
  # byte for byte: a hot-path change may not move a figure. The timings go
  # to /tmp, so a check run leaves the tree clean; README says how to
  # regenerate the committed BENCH_wallclock.json.
  local dir="$1"
  local json=/tmp/pagoda_BENCH_wallclock.json
  local baseline_s=8.357  # pre-engine-refactor seed, for the speedup field
  local budget_s=1.70     # 1.5 x 1.136 s
  echo "==> wall-clock gate (fig5_overall --tasks=4096, median of 3)"
  local runs=()
  local t0 t1 i out=/tmp/pagoda_fig5_4096.txt
  for i in 1 2 3; do
    t0=$(date +%s%N)
    "${dir}/bench/fig5_overall" --tasks=4096 >"${out}"
    t1=$(date +%s%N)
    runs+=("$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", (b-a)/1e9}')")
    if [[ "${i}" == 1 ]] && ! cmp "${out}" tests/golden/fig5_overall_4096.txt; then
      echo "error: fig5_overall --tasks=4096 stdout diverged from" \
        "tests/golden/fig5_overall_4096.txt" >&2
      exit 1
    fi
  done
  rm -f "${out}"
  local median
  median=$(printf '%s\n' "${runs[@]}" | sort -n | sed -n 2p)
  printf '{\n  "bench": "fig5_overall",\n  "tasks": 4096,\n  "runs_s": [%s, %s, %s],\n  "median_s": %s,\n  "budget_s": %s,\n  "pre_refactor_baseline_s": %s,\n  "speedup": %s\n}\n' \
    "${runs[0]}" "${runs[1]}" "${runs[2]}" "${median}" "${budget_s}" "${baseline_s}" \
    "$(awk -v b="${baseline_s}" -v m="${median}" 'BEGIN{printf "%.2f", b/m}')" \
    > "${json}"
  echo "    runs: ${runs[*]} -> median ${median}s (budget ${budget_s}s; ${json})"
  if awk -v m="${median}" -v b="${budget_s}" 'BEGIN{exit !(m > b)}'; then
    echo "error: fig5_overall median ${median}s exceeds ${budget_s}s" >&2
    exit 1
  fi
}

# Both test passes run golden_metrics_test via ctest, pinning fixed-seed
# metrics JSON byte-for-byte against tests/golden/ in Release AND under
# sanitizers.
run_pass build-release -DCMAKE_BUILD_TYPE=Release -DPAGODA_WERROR=ON
cluster_smoke build-release
fault_smoke build-release
qos_smoke build-release
trace_smoke build-release
power_smoke build-release
migrate_smoke build-release
fleet_smoke build-release
vres_smoke build-release
bench_usage_smoke build-release
engine_grep_clean
fault_grep_clean
sched_grep_clean
power_grep_clean
vres_grep_clean
copy_grep_clean
event_grep_clean
scheduler_grep_clean
landing_grep_clean
wallclock_gate build-release
fleet_gate build-release
trace_overhead_gate

echo "==> bench determinism (cluster_scaling)"
build-release/bench/cluster_scaling --tasks=512 --out=/tmp/pagoda_cluster_a.json >/dev/null
build-release/bench/cluster_scaling --tasks=512 --out=/tmp/pagoda_cluster_b.json >/dev/null
cmp /tmp/pagoda_cluster_a.json /tmp/pagoda_cluster_b.json
rm -f /tmp/pagoda_cluster_a.json /tmp/pagoda_cluster_b.json

echo "==> bench determinism + availability gate (fault_recovery)"
# The bench CHECKs retry goodput >= 2x no-retry at the top of the fault
# sweep and that node crashes lose nothing; two runs must be byte-identical.
build-release/bench/fault_recovery --tasks=1000 --out=/tmp/pagoda_fault_a.json >/dev/null
build-release/bench/fault_recovery --tasks=1000 --out=/tmp/pagoda_fault_b.json >/dev/null
cmp /tmp/pagoda_fault_a.json /tmp/pagoda_fault_b.json
rm -f /tmp/pagoda_fault_a.json /tmp/pagoda_fault_b.json

echo "==> bench determinism + QoS isolation gate (qos_isolation)"
# The bench CHECKs interactive p99 under edf AND priority >= 2x better than
# fifo at equal batch goodput, per seed; two runs must be byte-identical —
# and arming the request tracer on run a must not change a byte of the
# BENCH json (the tracer is passive).
build-release/bench/qos_isolation --tasks=1024 --out=/tmp/pagoda_sched_a.json \
    --trace-spans=/tmp/pagoda_qspans.json >/dev/null
build-release/bench/qos_isolation --tasks=1024 --out=/tmp/pagoda_sched_b.json >/dev/null
cmp /tmp/pagoda_sched_a.json /tmp/pagoda_sched_b.json
rm -f /tmp/pagoda_sched_a.json /tmp/pagoda_sched_b.json

echo "==> SLO debugging gate (trace_report --explain-slo)"
# The fifo run at this scale blows the interactive 2 ms SLO; every casualty
# must be attributed to a dominant phase (the fifo story: sched_wait).
slo_out=$(build-release/tools/trace_report --in=/tmp/pagoda_qspans.json \
    --explain-slo)
grep -q "slo_late=" <<<"${slo_out}"
grep -q "dominant=sched_wait" <<<"${slo_out}"
rm -f /tmp/pagoda_qspans.json

echo "==> bench determinism + energy Pareto gate (energy_pareto)"
# The bench CHECKs energy-min >= 1.3x fewer joules/request than always-max
# at equal per-class goodput, per seed; two runs must be byte-identical.
build-release/bench/energy_pareto --out=/tmp/pagoda_power_a.json >/dev/null
build-release/bench/energy_pareto --out=/tmp/pagoda_power_b.json >/dev/null
cmp /tmp/pagoda_power_a.json /tmp/pagoda_power_b.json
rm -f /tmp/pagoda_power_a.json /tmp/pagoda_power_b.json

echo "==> bench determinism + elastic-fleet gate (elastic_fleet)"
# The bench CHECKs the rolling resize loses nothing (shed == dropped == 0,
# exactly-once ledger, >= 99% availability) and the autoscaled diurnal day
# spends >= 1.15x fewer joules/request than the static full fleet at equal
# per-class goodput; two runs must be byte-identical.
build-release/bench/elastic_fleet --out=/tmp/pagoda_migrate_a.json >/dev/null
build-release/bench/elastic_fleet --out=/tmp/pagoda_migrate_b.json >/dev/null
cmp /tmp/pagoda_migrate_a.json /tmp/pagoda_migrate_b.json
rm -f /tmp/pagoda_migrate_a.json /tmp/pagoda_migrate_b.json

echo "==> bench determinism + virtual-occupancy gate (occupancy_virt)"
# The bench CHECKs >= 1.2x throughput and strictly higher measured SMM
# occupancy at the gate oversub factor vs static reservation, per seed,
# plus a compute-mode run verified against the CPU references; two runs
# must be byte-identical.
build-release/bench/occupancy_virt --out=/tmp/pagoda_vres_a.json >/dev/null
build-release/bench/occupancy_virt --out=/tmp/pagoda_vres_b.json >/dev/null
cmp /tmp/pagoda_vres_a.json /tmp/pagoda_vres_b.json
rm -f /tmp/pagoda_vres_a.json /tmp/pagoda_vres_b.json

echo "==> power wake-up attribution gate (trace_report --explain-slo)"
# Diurnal traffic on an energy-min fleet: the peak after a trough wakes a
# sleeping node, and the S-state wake latency must surface as the dominant
# phase of (some of) the resulting SLO casualties.
build-release/tools/pagoda_cli --workload=MM --tasks=4096 --gpus=2 \
    --policy=energy-min --arrival=diurnal:800000:8:20000 --slo-us=5000 \
    --power=default:floor=3 --governor=dvfs \
    --trace-spans=/tmp/pagoda_pspans.json >/dev/null
pslo_out=$(build-release/tools/trace_report --in=/tmp/pagoda_pspans.json \
    --explain-slo)
grep -q "dominant=power_wakeup" <<<"${pslo_out}"
rm -f /tmp/pagoda_pspans.json

if [[ "${1:-}" != "--fast" ]]; then
  run_pass build-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DPAGODA_SANITIZE=${SANITIZERS}"
  cluster_smoke build-asan
  fault_smoke build-asan
  qos_smoke build-asan
  trace_smoke build-asan
  power_smoke build-asan
  migrate_smoke build-asan
  vres_smoke build-asan
  echo "==> qos_isolation determinism under sanitizers"
  build-asan/bench/qos_isolation --tasks=512 --seeds=2 \
      --out=/tmp/pagoda_sched_a.json >/dev/null
  build-asan/bench/qos_isolation --tasks=512 --seeds=2 \
      --out=/tmp/pagoda_sched_b.json >/dev/null
  cmp /tmp/pagoda_sched_a.json /tmp/pagoda_sched_b.json
  rm -f /tmp/pagoda_sched_a.json /tmp/pagoda_sched_b.json
  # Linker-proved dead code stays at zero (about 6 minutes on 4 cores).
  tools/dead_code.sh /tmp/pagoda_dead_code
fi

echo "==> all checks passed"
