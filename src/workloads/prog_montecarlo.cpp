// montecarlo: Monte-Carlo option pricing, after the Java Grande benchmark.
//
// Workers pull task indices from a locked counter, run a deterministic
// pseudo-random walk per task, and append the result under the results
// lock. The original benchmark's known blemish is reproduced: a global
// diagnostic counter is bumped on every task WITHOUT synchronization — one
// racy variable (debugTasks), everything else is clean.
#include "workloads/programs_internal.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace paramount::programs {

namespace {

// One simulated price path; deterministic in the task index.
double simulate_path(int task) {
  Rng rng(static_cast<std::uint64_t>(task) * 2654435761u + 17);
  double price = 100.0;
  for (int step = 0; step < 64; ++step) {
    const double gaussish =
        rng.next_double() + rng.next_double() + rng.next_double() - 1.5;
    price *= std::exp(0.0002 + 0.02 * gaussish);
  }
  return price > 105.0 ? price - 105.0 : 0.0;  // call payoff
}

}  // namespace

void run_montecarlo(TraceRuntime& rt, std::size_t scale) {
  constexpr std::size_t kWorkers = 3;
  const std::size_t num_tasks = 6 * scale;

  TracedMutex task_lock(rt, "taskLock");
  TracedMutex results_lock(rt, "resultsLock");
  TracedVar<int> next_task(rt, "nextTask", 0);
  TracedVar<double> payoff_sum(rt, "payoffSum", 0.0);
  TracedVar<int> results_count(rt, "resultsCount", 0);
  // BUG (from the original): a debug statistic updated with no lock.
  TracedVar<int> debug_tasks(rt, "debugTasks", 0);

  // Untraced first-round gate: a worker that has claimed its first task
  // waits until every worker has claimed one. A task takes less time than
  // forking a thread, so without the gate the first worker can run every
  // task before the others exist, and the initialization-write exemption
  // then hides the race. With it, every worker's first debugTasks update
  // follows all first claims, so the updates are pairwise concurrent in
  // every run. The gate adds real-time overlap and no traced
  // happened-before edge.
  std::atomic<std::size_t> first_claims{0};
  const std::size_t gate = std::min(kWorkers, num_tasks);

  std::vector<std::unique_ptr<TracedThread>> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<TracedThread>(rt, [&] {
      bool first_task = true;
      while (true) {
        int task;
        {
          TracedLockGuard guard(task_lock);
          task = next_task.load();
          if (task >= static_cast<int>(num_tasks)) break;
          next_task.store(task + 1);
        }
        if (first_task) {
          first_task = false;
          // relaxed: the counter only paces the workers; it publishes no data.
          first_claims.fetch_add(1, std::memory_order_relaxed);
          while (first_claims.load(std::memory_order_relaxed) < gate) {
            rt.sched_yield();
          }
        }
        rt.sched_yield();  // single-core schedule diversification
        const double payoff = simulate_path(task);

        // Unsynchronized read-modify-write: the racy diagnostic.
        debug_tasks.store(debug_tasks.load() + 1);

        {
          TracedLockGuard guard(results_lock);
          payoff_sum.store(payoff_sum.load() + payoff);
          results_count.store(results_count.load() + 1);
        }
      }
    }));
  }
  for (auto& worker : workers) worker->join();
  (void)payoff_sum.load();
}

}  // namespace paramount::programs
