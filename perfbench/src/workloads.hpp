// The four perfbench workloads and the layer probes. Each workload fills
// the RunContext with raw samples, counter deltas and check results.
#pragma once

#include "common.hpp"

namespace bots::sparselu {
class BlockMatrix;
}

namespace perfbench {

/// Team size of every batch workload (the paper's Figure 3 point on a
/// 4-core host); the serve workload runs a team of 3 plus one generator.
inline constexpr unsigned kThreads = 4;

void run_fig3(RunContext& ctx);
void run_fine_grain(RunContext& ctx);
void run_dataflow(RunContext& ctx);
void run_serve(RunContext& ctx);

/// Naive fib as an untied spawn + taskwait recursion (serve requests and
/// the fib flood probe), and its closed-form check value.
std::uint64_t spawn_fib(int n);
std::uint64_t fib_ref(int n);

/// Digest of every allocated block of a factored sparselu matrix.
std::uint64_t digest_matrix(const bots::sparselu::BlockMatrix& m);

/// Layer micro-probes (EPCC-style fork/join, task+taskwait, nested tasks;
/// null and fib task floods; deque push/pop/steal; range iterations;
/// dependence edges). Traced runs only.
void run_probes(RunContext& ctx);

}  // namespace perfbench
