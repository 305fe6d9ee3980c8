#!/usr/bin/env bash
# One-command CI for the HALO reproduction: the tier-1 verify (Release
# build + full ctest, including the golden_run_json byte check) followed
# by the ASan+UBSan build (-DHALO_SANITIZE=ON) running the same suite.
# Each build also smoke-tests the artifact store end to end through
# halo_cli against a per-run temp --store-dir: cold run populates, warm
# run must emit byte-identical JSON, verify must pass. And each build
# smoke-tests the serve daemon: two concurrent clients against one
# daemon on a temp socket, each byte-identical to a local run, then a
# clean client-initiated shutdown (exit 0, socket file gone).
#
# Usage: scripts/ci.sh [build-dir [sanitize-build-dir]]
#   build dirs default to build/ and build-asan/ at the repo root;
#   CTEST_PARALLEL overrides the ctest -j level.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
SAN_BUILD="${2:-$ROOT/build-asan}"
JOBS="${CTEST_PARALLEL:-$(nproc)}"

# Cold run, warm run, byte-compare, verify -- with a store directory that
# lives only for this invocation, so runs never poison each other. The
# same trace then round-trips through --trace-mode mapped (cold: record
# streamed to disk; warm: replayed mmap'd off the store entry), and both
# runs must emit JSON byte-identical to the in-RAM --trace-mode memory
# oracle -- the "mapped = in-RAM" contract, end to end through the CLI.
store_smoke() {
  local build="$1"
  local store out_cold out_warm out_mem out_map_cold out_map_warm
  store="$(mktemp -d)"
  out_cold="$(mktemp)"
  out_warm="$(mktemp)"
  out_mem="$(mktemp)"
  out_map_cold="$(mktemp)"
  out_map_warm="$(mktemp)"
  trap 'rm -rf "$store" "$out_cold" "$out_warm" "$out_mem" "$out_map_cold" "$out_map_warm"' RETURN
  "$build/examples/halo_cli" run health --trials 2 \
      --store-dir "$store" --out "$out_cold"
  "$build/examples/halo_cli" run health --trials 2 \
      --store-dir "$store" --out "$out_warm"
  cmp "$out_cold" "$out_warm"
  "$build/examples/halo_cli" store verify --store-dir "$store"
  "$build/examples/halo_cli" store gc --store-dir "$store"

  local map_store
  map_store="$(mktemp -d)"
  trap 'rm -rf "$store" "$out_cold" "$out_warm" "$out_mem" "$out_map_cold" "$out_map_warm" "$map_store"' RETURN
  "$build/examples/halo_cli" run health --trials 2 \
      --trace-mode mapped --store-dir "$map_store" --out "$out_map_cold"
  "$build/examples/halo_cli" run health --trials 2 \
      --trace-mode mapped --store-dir "$map_store" --out "$out_map_warm"
  "$build/examples/halo_cli" run health --trials 2 \
      --trace-mode memory --store-dir "$map_store" --out "$out_mem"
  cmp "$out_mem" "$out_map_cold"
  cmp "$out_mem" "$out_map_warm"
  "$build/examples/halo_cli" store verify --store-dir "$map_store"
}

# The serve daemon end to end through halo_cli: a daemon on a per-run
# temp socket serves two clients concurrently, each client's streamed
# JSON must be byte-identical to a local `experiments` run of the same
# spec ("served = local"), and a client-initiated shutdown must leave
# exit 0 and no socket file behind.
serve_smoke() {
  local build="$1"
  local dir daemon_pid sock
  dir="$(mktemp -d)"
  daemon_pid=""
  # shellcheck disable=SC2064
  trap "if [[ -n \"\${daemon_pid:-}\" ]]; then kill \"\$daemon_pid\" 2>/dev/null || true; fi; rm -rf \"$dir\"" RETURN
  sock="$dir/halo.sock"

  "$build/examples/halo_cli" serve --socket "$sock" --jobs 2 \
      --store-dir "$dir/store" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sock" ]]

  # Local oracles for both client specs.
  "$build/examples/halo_cli" experiments health --kinds jemalloc,halo \
      --scale test --trials 2 --out "$dir/local_a.json"
  "$build/examples/halo_cli" experiments ft --kinds jemalloc,hds \
      --scale test --trials 2 --out "$dir/local_b.json"

  # Two clients racing on the one daemon.
  "$build/examples/halo_cli" client run health --socket "$sock" \
      --kinds jemalloc,halo --scale test --trials 2 \
      --out "$dir/served_a.json" &
  local client_a=$!
  "$build/examples/halo_cli" client run ft --socket "$sock" \
      --kinds jemalloc,hds --scale test --trials 2 \
      --out "$dir/served_b.json" &
  local client_b=$!
  wait "$client_a"
  wait "$client_b"
  cmp "$dir/local_a.json" "$dir/served_a.json"
  cmp "$dir/local_b.json" "$dir/served_b.json"

  "$build/examples/halo_cli" client shutdown --socket "$sock"
  wait "$daemon_pid"
  daemon_pid=""
  [[ ! -e "$sock" ]]
}

echo "== tier-1: Release build + ctest ($BUILD) =="
cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== tier-1: store warm/cold smoke =="
store_smoke "$BUILD"

echo "== tier-1: serve daemon smoke =="
serve_smoke "$BUILD"

echo "== sanitized: ASan+UBSan build + ctest ($SAN_BUILD) =="
cmake -B "$SAN_BUILD" -S "$ROOT" -DHALO_SANITIZE=ON
cmake --build "$SAN_BUILD" -j
ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS"

echo "== sanitized: store warm/cold smoke =="
store_smoke "$SAN_BUILD"

echo "== sanitized: serve daemon smoke =="
serve_smoke "$SAN_BUILD"

echo "== ci: all suites passed =="
