#!/usr/bin/env bash
# Tier-1 verification: the full build + ctest suite, then the socket-heavy
# net and integration suites again under ASan+UBSan (LOCO_SANITIZE=ON), then
# the concurrency-heavy suites under ThreadSanitizer (LOCO_SANITIZE=tsan).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: overload smoke (fig_overload --short, gated) =="
# Drives an in-process FMS through peak -> deadline-burst -> 2x sustained
# overload and enforces the docs/OVERLOAD.md gates: >= 70% of peak goodput
# retained, offered load >= 2x peak, expired requests dropped unexecuted,
# admission queue bounded at max_queue.
cmake --build build -j --target fig_overload >/dev/null
./build/bench/fig_overload --short --out build/BENCH_overload_smoke.json
# Same driver against a live daemon: spawn a real FMS and round-trip the
# three phases over TCP (the environment-sensitive gates are skipped in
# --connect mode; the run must still complete cleanly).
smoke_dir=$(mktemp -d)
./build/daemons/locofs_fmsd --listen 127.0.0.1:47117 --sid 1 --workers 4 \
  --store-dir "$smoke_dir" >"$smoke_dir/fms.log" 2>&1 &
smoke_pid=$!
trap 'kill $smoke_pid 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
sleep 0.5
./build/bench/fig_overload --short --connect 127.0.0.1:47117 \
  --out build/BENCH_overload_live.json
kill $smoke_pid 2>/dev/null || true
wait $smoke_pid 2>/dev/null || true
trap - EXIT
rm -rf "$smoke_dir"

echo "== tier-1: 2-shard live e2e leg (create/rename/fsck-clean) =="
# Two real locofs_dmsd shard processes plus FMS/OSD: the cross-shard rename
# chaos matrix (docs/SHARDING.md) — client-driven 2PC end to end, SIGKILL at
# each crash point, recovery by loco_fsck --repair and by the shards' own
# intent-resolution GC, with a clean read-only fsck pass after each.
./build/tests/integration/shard_rename_test

echo "== tier-1: shard scale-out smoke (fig_shard --short) =="
# Sim-based 1/2/4-shard sweep of the mkdir/create/rename mix.  The --short
# run is a correctness smoke (zero failed ops across shard counts); the
# full `fig_shard` run (saturating client count) is what demonstrates the
# 2-shard scale-out (1.81x, 2.97x at 4 shards, in BENCH_shard.json).
cmake --build build -j --target fig_shard >/dev/null
./build/bench/fig_shard --short --out build/BENCH_shard_smoke.json

echo "== tier-1: livebench correctness leg (wide_dir, 3 s) =="
# A short run of the live-daemon benchmark (livebench/README.md): builds its
# own package, serves from 2 DMS shards + 2 FMS + an OSD, then SIGKILLs and
# restarts every daemon and checks each client's ledger.  The last stdout
# line is the JSON result; it must report "correct": true.
live_last=$(python3 livebench/run.py --workload wide_dir --seed 1 --seconds 3 \
  --trace 0 | tail -n 1)
echo "$live_last"
case "$live_last" in
  *'"correct": true'*) ;;
  *) echo "tier1: livebench run did not report \"correct\": true" >&2; exit 1 ;;
esac

echo "== tier-1: ASan+UBSan pass (net + kv + fs + sim + core + benchlib + integration + chaos + shard + gc soak + notify) =="
cmake -B build-asan -S . -DLOCO_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target net_test kvstore_test fs_test \
  sim_test core_test core_housekeeping_test locofs_property_test \
  benchlib_test integration_test chaos_test shard_rename_test gc_soak_test \
  notify_e2e_test locofs_dmsd locofs_fmsd locofs_osd loco_fsck \
  loco_shell >/dev/null
# net_test carries the wire/batch-envelope fuzz corpus and core_test the
# batch handler suites, so the epoll server, the batch codecs and their
# FMS handlers all run under ASan; kvstore_test covers the WAL replay and
# compaction paths and fs_test the client-visible namespace semantics;
# chaos_test includes the batched crash-restart storm, and gc_soak_test
# kills a client + FMS while every daemon runs its GC thread and then
# repairs with `loco_fsck --live`.
./build-asan/tests/net/net_test
./build-asan/tests/kvstore/kvstore_test
./build-asan/tests/fs/fs_test
./build-asan/tests/sim/sim_test
./build-asan/tests/core/core_test
./build-asan/tests/core/core_housekeeping_test
./build-asan/tests/core/locofs_property_test
./build-asan/tests/benchlib/benchlib_test
./build-asan/tests/integration/integration_test
./build-asan/tests/integration/chaos_test
./build-asan/tests/integration/shard_rename_test
./build-asan/tests/integration/gc_soak_test
./build-asan/tests/integration/notify_e2e_test

echo "== tier-1: TSan pass (worker pool, striped KV, sim, concurrent handlers, GC, notify) =="
cmake -B build-tsan -S . -DLOCO_SANITIZE=tsan >/dev/null
cmake --build build-tsan -j --target net_test kvstore_test fs_test \
  sim_test core_test striped_kv_test \
  core_concurrency_test core_housekeeping_test notify_e2e_test >/dev/null
# net_test exercises the epoll server loop, the client reactor and the
# worker pool under TSan; core_test adds the batch handler suites over the
# striped stores, and core_housekeeping_test runs the GcManager scan
# thread against serving handlers (token bucket, snapshot pins, session
# table).
./build-tsan/tests/net/net_test
./build-tsan/tests/kvstore/kvstore_test
./build-tsan/tests/fs/fs_test
./build-tsan/tests/sim/sim_test
./build-tsan/tests/core/core_test
./build-tsan/tests/kvstore/striped_kv_test
./build-tsan/tests/core/core_concurrency_test
./build-tsan/tests/core/core_housekeeping_test
./build-tsan/tests/integration/notify_e2e_test

echo "tier1: OK"
