// raytracer: a small sphere raytracer, after the Java Grande benchmark.
//
// Workers claim scanlines from a locked row counter, trace real
// ray-sphere-intersection rays for every pixel of the row, and fold the row
// colour into a global checksum — WITHOUT the lock, the original benchmark's
// known bug: one racy variable (checksum), the single detection of Table 2.
#include "workloads/programs_internal.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

namespace paramount::programs {

namespace {

struct Vec3 {
  double x = 0, y = 0, z = 0;

  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 scaled(double s) const { return {x * s, y * s, z * s}; }
  double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 normalized() const {
    const double len = std::sqrt(dot(*this));
    return len > 0 ? scaled(1.0 / len) : *this;
  }
};

struct Sphere {
  Vec3 center;
  double radius;
  double shade;
};

// Returns the distance to the nearest hit, or a negative value on miss.
double intersect(const Sphere& s, const Vec3& origin, const Vec3& dir) {
  const Vec3 oc = origin - s.center;
  const double b = 2.0 * oc.dot(dir);
  const double c = oc.dot(oc) - s.radius * s.radius;
  const double disc = b * b - 4.0 * c;
  if (disc < 0.0) return -1.0;
  const double t = (-b - std::sqrt(disc)) / 2.0;
  return t;
}

double trace_pixel(const std::vector<Sphere>& scene, double u, double v) {
  const Vec3 origin{0.0, 0.0, -4.0};
  const Vec3 dir = Vec3{u, v, 1.0}.normalized();
  double best_t = 1e30;
  double shade = 0.05;  // background
  for (const Sphere& s : scene) {
    const double t = intersect(s, origin, dir);
    if (t > 0.0 && t < best_t) {
      best_t = t;
      const Vec3 hit = origin + dir.scaled(t);
      const Vec3 normal = (hit - s.center).normalized();
      const Vec3 light = Vec3{0.5, 1.0, -0.5}.normalized();
      shade = s.shade * std::max(0.1, normal.dot(light));
    }
  }
  return shade;
}

}  // namespace

void run_raytracer(TraceRuntime& rt, std::size_t scale) {
  constexpr std::size_t kWorkers = 3;
  const std::size_t height = 6 * scale;
  const std::size_t width = 16;

  const std::vector<Sphere> scene = {
      {{0.0, 0.0, 2.0}, 1.0, 0.9},
      {{-1.4, 0.6, 3.0}, 0.7, 0.6},
      {{1.2, -0.5, 1.5}, 0.5, 0.8},
  };

  TracedMutex row_lock(rt, "rowLock");
  TracedVar<int> next_row(rt, "nextRow", 0);
  TracedVar<double> checksum(rt, "checksum", 0.0);

  // Untraced first-round gate: a worker that has claimed its first row waits
  // until every worker has claimed one. A row takes less time than forking a
  // thread, so without the gate the first worker claims the whole image
  // before the others exist and the run is serialized. With it, every
  // worker's first checksum update follows all first claims, so the updates
  // are pairwise concurrent in every run. The gate is unmonitored: it adds
  // real-time overlap and no traced happened-before edge.
  std::atomic<std::size_t> first_claims{0};
  const std::size_t gate = std::min(kWorkers, height);

  std::vector<std::unique_ptr<TracedThread>> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<TracedThread>(rt, [&] {
      bool first_row = true;
      while (true) {
        int row;
        {
          TracedLockGuard guard(row_lock);
          row = next_row.load();
          if (row >= static_cast<int>(height)) break;
          next_row.store(row + 1);
        }
        if (first_row) {
          first_row = false;
          // relaxed: the counter only paces the workers; it publishes no data.
          first_claims.fetch_add(1, std::memory_order_relaxed);
          while (first_claims.load(std::memory_order_relaxed) < gate) {
            rt.sched_yield();
          }
        }
        // Give the other workers a chance to claim their rows before this
        // row's unsynchronized checksum update is flushed: on a single-core
        // host this keeps the observed schedule as interleaved as the
        // multi-core schedule the original benchmark runs under.
        rt.sched_yield();
        double row_sum = 0.0;
        for (std::size_t px = 0; px < width; ++px) {
          const double u =
              (static_cast<double>(px) / width - 0.5) * 2.0;
          const double v =
              (static_cast<double>(row) / height - 0.5) * 2.0;
          row_sum += trace_pixel(scene, u, v);
        }
        // BUG (from the original benchmark): the global checksum is
        // accumulated without synchronization.
        checksum.store(checksum.load() + row_sum);
      }
    }));
  }
  for (auto& worker : workers) worker->join();
  (void)checksum.load();
}

}  // namespace paramount::programs
