#pragma once

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

/// \file shard.hpp
/// Deterministic intra-run parallelism: a runtime-chosen shard decomposition,
/// run inline on the caller or over a borrowed worker pool.
///
/// The tick pipeline's heavy phases (unit-disk pair enumeration, link-set
/// differences, batch hop pricing) are data-parallel over an index space
/// that already has a canonical sequential order. ShardExecutor splits that
/// space into a number of contiguous shards fixed for the executor's
/// lifetime — decoupled from the thread count — and runs one task per shard,
/// either on the pool or, with no pool, in shard index order on the calling
/// thread (the inline mode; a default-constructed executor is one inline
/// shard). Each shard writes its own output buffer; callers concatenate the
/// buffers in shard index order, which reproduces the canonical iteration
/// order exactly. The result is therefore the same at ANY shard count x ANY
/// thread count (the sharded-tick identity suite pins shards {1, 4, 16, 64}
/// x threads {1, 2, 8}), so the shard count is a pure throughput knob:
/// RunOptions::shards / --shards picks it per run (resolve_shard_count(),
/// power-of-two rounded, 0 = auto from the worker count). The executor is
/// the only execution path of those phases — there is no sequential twin.
///
/// Telemetry follows the same discipline through the per-shard
/// common::MetricsRegistry shards (common::ShardedMetrics): shard i is
/// written exclusively by the task running shard i, and merged_metrics()
/// folds the shards in index order, so every par.* counter is a pure
/// function of the workload and the shard count — never of the thread
/// count or the scheduling order.

namespace manet::sim {

/// Default shard grid for the tick pipeline: comfortably above the thread
/// counts the runner accepts in practice (so slow shards rebalance) while
/// keeping the sequential concatenation step trivial. Used as the floor of
/// the auto topology in resolve_shard_count(); every output is bit-identical
/// at any shard count, so this is a throughput default, not a correctness
/// contract.
inline constexpr Size kDefaultShardCount = 16;

/// Upper bound on the per-run shard count: per-shard output buffers are
/// concatenated sequentially, so thousands of shards only add merge overhead.
inline constexpr Size kMaxShardCount = 1024;

/// Resolve a requested shard topology (RunOptions::shards / --shards) into
/// the executor's shard count. \p requested == 0 means auto: modestly
/// oversubscribe the worker count (4x, so slow shards rebalance) with
/// kDefaultShardCount as the floor. Any explicit request is rounded UP to
/// the next power of two — power-of-two counts keep slice boundaries stable
/// under halving/doubling sweeps — and clamped to [1, kMaxShardCount].
/// Outputs never depend on the result (bit-identity across shard counts),
/// so this is pure throughput policy.
inline Size resolve_shard_count(Size requested, Size workers) noexcept {
  Size target = requested;
  if (target == 0) target = std::max<Size>(kDefaultShardCount, 4 * workers);
  if (target > kMaxShardCount) target = kMaxShardCount;
  Size rounded = 1;
  while (rounded < target) rounded *= 2;
  return rounded;
}

class ShardExecutor {
 public:
  /// Inline executor: no pool; for_each_shard() runs the \p shard_count
  /// shards in index order on the calling thread.
  explicit ShardExecutor(Size shard_count = 1)
      : shard_count_(shard_count), metrics_(shard_count) {}

  /// Shards the run over \p pool. \p shard_count is fixed for the executor's
  /// lifetime; it should modestly exceed the largest thread count in use so
  /// slow shards rebalance, but stay O(tens) — per-shard buffers are
  /// concatenated sequentially. \p pool must outlive the executor.
  ShardExecutor(common::ThreadPool& pool, Size shard_count)
      : pool_(&pool), shard_count_(shard_count), metrics_(shard_count) {}

  Size shard_count() const noexcept { return shard_count_; }
  Size thread_count() const noexcept { return pool_ != nullptr ? pool_->thread_count() : 1; }

  /// Run fn(shard) for every shard in [0, shard_count) and block until all
  /// complete: across the pool, or inline in shard index order. Either way
  /// every shard runs, and the first exception in shard order propagates
  /// once they have.
  void for_each_shard(const std::function<void(Size)>& fn) const {
    if (pool_ != nullptr) {
      pool_->parallel_for(shard_count_, fn);
      return;
    }
    std::exception_ptr first_error;
    for (Size shard = 0; shard < shard_count_; ++shard) {
      try {
        fn(shard);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Contiguous slice [begin, end) of an n-element index space owned by
  /// \p shard: the first n % shard_count shards take one extra element, so
  /// concatenating the slices in shard order walks [0, n) exactly once.
  static std::pair<Size, Size> slice(Size n, Size shard, Size shard_count) {
    const Size base = n / shard_count;
    const Size extra = n % shard_count;
    const Size begin = shard * base + std::min(shard, extra);
    return {begin, begin + base + (shard < extra ? 1 : 0)};
  }

  /// Shard-exclusive registry for the task running \p shard (lock-free by
  /// construction: no two shards share a registry).
  common::MetricsRegistry& metrics(Size shard) { return metrics_.shard(shard); }

  /// Fold the per-shard telemetry into \p target in shard index order (the
  /// ShardedMetrics determinism contract).
  void merge_metrics_into(common::MetricsRegistry& target) const {
    target.merge(metrics_.merged());
  }

 private:
  common::ThreadPool* pool_ = nullptr;  ///< nullptr: inline mode
  Size shard_count_;
  mutable common::ShardedMetrics metrics_;
};

/// A component's executor: its own one-shard inline executor until a shared
/// one is attached. Holds no pointer into itself, so the owning component
/// stays movable.
class ExecutorSlot {
 public:
  /// Use \p shared (not owned) from now on; nullptr restores the own inline
  /// executor.
  void attach(ShardExecutor* shared) noexcept { shared_ = shared; }
  ShardExecutor& get() noexcept { return shared_ != nullptr ? *shared_ : own_; }

 private:
  ShardExecutor own_;
  ShardExecutor* shared_ = nullptr;
};

}  // namespace manet::sim
