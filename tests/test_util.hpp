// Test helpers: run C++ lambdas as GMT tasks.
//
// The public API takes plain function pointers (they must be shippable in
// spawn commands); tests want lambdas with captures. In-process, a pointer
// to a std::function travels through the argument buffer safely — the
// function object outlives the call because gmt_parfor/run block.
#pragma once

#include <cstring>
#include <functional>

#include "gmt/gmt.hpp"
#include "gmt/obs.hpp"
#include "runtime/cluster.hpp"

namespace gmt::test {

// Runs `body` as the root task of the cluster.
inline void run_task(rt::Cluster& cluster, std::function<void()> body) {
  std::function<void()>* ptr = &body;
  cluster.run(
      [](std::uint64_t, const void* args) {
        std::function<void()>* fn;
        std::memcpy(&fn, args, sizeof(fn));
        (*fn)();
      },
      &ptr, sizeof(ptr));
}

// Parallel-for over a lambda taking the iteration index. Must be called
// from inside a task.
inline void parfor_lambda(std::uint64_t iterations, std::uint64_t chunk,
                          const std::function<void(std::uint64_t)>& body,
                          Spawn policy = Spawn::kPartition) {
  const std::function<void(std::uint64_t)>* ptr = &body;
  gmt_parfor(
      iterations, chunk,
      [](std::uint64_t i, const void* args) {
        const std::function<void(std::uint64_t)>* fn;
        std::memcpy(&fn, args, sizeof(fn));
        (*fn)(i);
      },
      &ptr, sizeof(ptr), policy);
}

// Every node's metric registry merged into one snapshot (same-named
// counters and gauges summed across nodes).
inline obs::Snapshot cluster_snapshot(rt::Cluster& cluster) {
  obs::Snapshot total;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    total.merge(cluster.node(n).obs().snapshot());
  return total;
}

}  // namespace gmt::test
