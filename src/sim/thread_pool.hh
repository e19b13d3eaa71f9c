/**
 * @file
 * Fixed-size worker pool for data-parallel simulation loops.
 *
 * The system layer runs many independent chain simulators, each
 * through a window of slots per loop.
 * ThreadPool::parallelForChunked distributes such an index range over
 * a fixed set of worker threads in a static partition; the calling
 * thread participates, so a pool of size 1 degenerates to the plain
 * serial loop.  Work items must not touch shared mutable state —
 * determinism is the caller's contract (see DESIGN.md, "Threading and
 * determinism model").
 */

#ifndef NEOFOG_SIM_THREAD_POOL_HH
#define NEOFOG_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace neofog {

/**
 * A fixed set of worker threads executing indexed loop bodies.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total worker count including the calling thread;
     *        0 means hardwareThreads().  A pool of size <= 1 spawns no
     *        OS threads and runs every loop inline.  Absurd requests
     *        are clamped to max(256, 2 x hardware threads) — results
     *        never depend on the size, only wall-clock does.
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute loop bodies (>= 1). */
    unsigned size() const { return _size; }

    /**
     * Run body(0) ... body(count-1) in a *deterministic static
     * partition*: pool thread w runs exactly the contiguous index
     * chunk [w*count/size, (w+1)*count/size), every call.  Blocks until
     * every index has finished; bodies must be mutually independent.
     * If any body throws, the first exception is rethrown here after
     * the loop drains.  Not reentrant: it must not be called from
     * inside a body.  The stable chunk→thread mapping is what makes
     * first-touch placement work: when the objects behind the indices
     * were also *constructed* under parallelForChunked, every later
     * sweep touches memory the same thread faulted in (see DESIGN.md,
     * "Memory placement").
     */
    void parallelForChunked(std::size_t count,
                            const std::function<void(std::size_t)> &body);

    /** Hardware concurrency with a sane floor of 1. */
    static unsigned hardwareThreads();

  private:
    struct Job
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t count = 0;
        /** Pool size the chunk ranges are computed against. */
        unsigned poolSize = 1;
        std::atomic<std::size_t> done{0};
        std::exception_ptr error;
        std::mutex errorMutex;
    };

    /** Run pool thread @p worker's static index range of @p job. */
    void work(Job &job, unsigned worker);

    void workerLoop(unsigned worker);

    unsigned _size = 1;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _wake;     ///< workers wait for a job
    std::condition_variable _finished; ///< caller waits for completion
    std::shared_ptr<Job> _job;         ///< current job, null when idle
    std::uint64_t _generation = 0;     ///< bumped per loop
    bool _stopping = false;
};

/**
 * Serial-fallback helper: run the loop on @p pool if it exists and has
 * more than one thread, inline otherwise.
 */
void parallelForChunked(ThreadPool *pool, std::size_t count,
                        const std::function<void(std::size_t)> &body);

} // namespace neofog

#endif // NEOFOG_SIM_THREAD_POOL_HH
