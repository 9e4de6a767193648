#!/bin/sh
# Sanitizer pass over hierarchy assembly, the session data plane, the
# sharded tick and the experiment layer (run_simulation).
#
# Configures two side build trees at the repository root, next to the
# default build/:
#   build-asan/  -DMANET_SANITIZE=address,undefined
#   build-tsan/  -DMANET_SANITIZE=thread
# (ASan and TSan cannot share a tree), builds the test binaries only, and
# runs the graph, sim, net, cluster, lm, routing, traffic, exp,
# golden-identity, sharded-tick and tick-pipeline suites under each. Those
# suites cover the BFS kernels (single-source and the epoch-stamped pair
# query), the shard executor (inline and pooled) and every component that
# runs on it (unit-disk builder, link tracker, handoff pricing), hierarchy
# building and localized repair, the reused routing scratch, the session
# packet path, and run_simulation / the replication pool end to end. Any
# sanitizer report or test failure makes the script exit non-zero.
#
# Usage: tools/run_sanitizers.sh [asan|tsan|all]   (default: all)
#        JOBS=N sets the build parallelism (default: 4).

set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${JOBS:-4}
mode=${1:-all}

# Sanitizer reports are fatal; UBSan is already built with
# -fno-sanitize-recover (see MANET_SANITIZE in CMakeLists.txt).
ASAN_OPTIONS=${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}
UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
export ASAN_OPTIONS UBSAN_OPTIONS TSAN_OPTIONS

run_tree() {
    dir=$root/$1
    sanitize=$2
    cxx_flags=$3
    echo "run_sanitizers: $1 (MANET_SANITIZE=$sanitize)"
    cmake -S "$root" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMANET_SANITIZE="$sanitize" -DCMAKE_CXX_FLAGS="$cxx_flags" \
        -DMANET_BUILD_BENCH=OFF -DMANET_BUILD_EXAMPLES=OFF
    cmake --build "$dir" -j "$jobs" --target tests_graph tests_sim tests_net \
        tests_cluster tests_lm tests_routing tests_traffic tests_exp tests_integration
    "$dir/tests/tests_graph"
    "$dir/tests/tests_sim"
    "$dir/tests/tests_net"
    "$dir/tests/tests_cluster"
    "$dir/tests/tests_lm"
    "$dir/tests/tests_routing"
    "$dir/tests/tests_traffic"
    "$dir/tests/tests_exp"
    "$dir/tests/tests_integration" --gtest_filter='GoldenIdentity.*:ShardedTick.*:TickPipeline.*'
}

# The ASan tree also turns on libstdc++'s bounds-checked containers.
asan() { run_tree build-asan address,undefined -D_GLIBCXX_ASSERTIONS; }
tsan() { run_tree build-tsan thread ""; }

case $mode in
    asan) asan ;;
    tsan) tsan ;;
    all)
        asan
        tsan
        ;;
    *)
        echo "usage: tools/run_sanitizers.sh [asan|tsan|all]" >&2
        exit 2
        ;;
esac
echo "run_sanitizers: OK"
