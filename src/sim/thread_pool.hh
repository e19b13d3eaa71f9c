/**
 * @file
 * Fixed-size worker pool for data-parallel simulation loops.
 *
 * The system layer runs many independent chain simulators per slot and
 * many independent seeds per experiment.  ThreadPool::parallelFor
 * distributes such index ranges over a fixed set of worker threads;
 * the calling thread participates, so a pool of size 1 degenerates to
 * the plain serial loop.  Work items must not touch shared mutable
 * state — determinism is the caller's contract (see DESIGN.md,
 * "Threading and determinism model").
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
     * Run body(0) ... body(count-1), distributing indices over the
     * pool.  Blocks until every index has finished.  Indices are
     * claimed dynamically, so the assignment of index to thread is
     * nondeterministic — bodies must be mutually independent.  If any
     * body throws, the first exception is rethrown here after the loop
     * drains.  Not reentrant: parallelFor must not be called from
     * inside a body.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Like parallelFor, but with a *deterministic static partition*:
     * pool thread w runs exactly the contiguous index chunk
     * [w*count/size, (w+1)*count/size), every call.  The stable
     * chunk→thread mapping is what makes first-touch placement work:
     * when the objects behind the indices were also *constructed*
     * under parallelForChunked, every later sweep touches memory the
     * same thread faulted in (see DESIGN.md, "Memory placement").
     * Same blocking/exception contract as parallelFor.
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
        /** Static chunk per thread instead of dynamic claiming. */
        bool chunked = false;
        /** Pool size the chunk ranges are computed against. */
        unsigned poolSize = 1;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::exception_ptr error;
        std::mutex errorMutex;
    };

    /**
     * Run @p job's share for pool thread @p worker: the dynamic
     * claim-next loop, or (chunked) the thread's static index range.
     */
    void work(Job &job, unsigned worker);

    /** Shared submit/participate/wait body of both parallelFor forms. */
    void runJob(std::size_t count,
                const std::function<void(std::size_t)> &body,
                bool chunked);

    void workerLoop(unsigned worker);

    unsigned _size = 1;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _wake;     ///< workers wait for a job
    std::condition_variable _finished; ///< caller waits for completion
    std::shared_ptr<Job> _job;         ///< current job, null when idle
    std::uint64_t _generation = 0;     ///< bumped per parallelFor
    bool _stopping = false;
};

/**
 * Serial-fallback helper: run the loop on @p pool if it exists and has
 * more than one thread, inline otherwise.
 */
void parallelFor(ThreadPool *pool, std::size_t count,
                 const std::function<void(std::size_t)> &body);

/** Serial-fallback helper for the chunked static partition. */
void parallelForChunked(ThreadPool *pool, std::size_t count,
                        const std::function<void(std::size_t)> &body);

} // namespace neofog

#endif // NEOFOG_SIM_THREAD_POOL_HH
