#include "sweep/sweep.hh"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.hh"

namespace metro
{

namespace
{

/** SplitMix64 finalizer (Steele, Lea & Flood). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

/** Run one point on the calling thread. */
SweepPointResult
runPoint(const SweepPoint &point, std::uint64_t index,
         const SweepOptions &options)
{
    METRO_ASSERT(static_cast<bool>(point.build),
                 "sweep point %llu (%s) has no build function",
                 static_cast<unsigned long long>(index),
                 point.label.c_str());

    SweepPointResult out;
    out.label = point.label;
    out.replicate = point.replicate;
    out.seed =
        sweepDeriveSeed(point.config.seed, index, point.replicate);

    const auto t0 = std::chrono::steady_clock::now();
    SweepInstance instance = point.build(out.seed);
    METRO_ASSERT(instance.network != nullptr,
                 "sweep point %llu (%s) built no network",
                 static_cast<unsigned long long>(index),
                 point.label.c_str());
    // Parallel engine stepping is a pure throughput knob: results
    // are byte-identical at every engine thread count.
    Engine &engine = instance.network->engine();
    if (options.engineThreads != 1)
        engine.setThreads(options.engineThreads);
    if (options.profile)
        engine.setProfile(&out.profile);

    ExperimentConfig cfg = point.config;
    cfg.seed = out.seed;
    switch (point.mode) {
      case SweepMode::Closed:
        out.result = runClosedLoop(*instance.network, cfg);
        break;
      case SweepMode::Open:
        out.result = runOpenLoop(*instance.network, cfg);
        break;
      case SweepMode::Session:
        out.result = runSessionLoop(*instance.network, cfg);
        break;
    }
    engine.setProfile(nullptr);
    if (point.inspect)
        point.inspect(*instance.network, out.result);
    out.wallSeconds = secondsSince(t0);
    return out;
}

} // namespace

std::uint64_t
sweepDeriveSeed(std::uint64_t base, std::uint64_t index,
                std::uint64_t replicate)
{
    // Chain the finalizer so every coordinate perturbs the whole
    // state; the odd constants decorrelate index from replicate.
    std::uint64_t z = splitmix64(base);
    z = splitmix64(z ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    z = splitmix64(z ^ (0xbf58476d1ce4e5b9ULL * (replicate + 1)));
    return z;
}

SweepResult
runSweep(const std::vector<SweepPoint> &points,
         const SweepOptions &options)
{
    SweepResult sweep;
    sweep.points.resize(points.size());
    // Pre-mark every slot skipped; a worker overwrites its slot
    // with the real result, so whatever is still marked after the
    // join is exactly the unclaimed tail of a stopped sweep.
    for (std::size_t i = 0; i < points.size(); ++i) {
        sweep.points[i].label = points[i].label;
        sweep.points[i].replicate = points[i].replicate;
        sweep.points[i].skipped = true;
    }

    unsigned threads = options.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > points.size() && !points.empty())
        threads = static_cast<unsigned>(points.size());
    sweep.threadsUsed = points.empty() ? 0 : threads;

    const auto t0 = std::chrono::steady_clock::now();
    if (points.empty()) {
        sweep.wallSeconds = secondsSince(t0);
        return sweep;
    }

    // Work-stealing over an atomic cursor: each worker claims the
    // next unclaimed point and writes its slot of the pre-sized
    // result vector. Slots are disjoint, so the only shared state
    // is the cursor.
    std::atomic<std::size_t> cursor{0};
    auto worker = [&]() {
        for (;;) {
            if (options.stopRequested && options.stopRequested()) {
                // Park the cursor past the end so other workers
                // stop claiming too, then bail.
                cursor.store(points.size(),
                             std::memory_order_relaxed);
                return;
            }
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                return;
            sweep.points[i] = runPoint(points[i], i, options);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    sweep.wallSeconds = secondsSince(t0);
    return sweep;
}

} // namespace metro
