#include "sim/thread_pool.hh"

#include <algorithm>
#include <cstdint>
#include <memory>

namespace neofog {

ThreadPool::ThreadPool(unsigned threads)
{
    _size = threads == 0 ? hardwareThreads() : threads;
    if (_size < 1)
        _size = 1;
    // Oversubscribing past this point only costs memory and context
    // switches (and a caller passing e.g. (unsigned)-1 would abort in
    // std::thread); results are size-independent, so clamp hard.
    const unsigned cap = std::max(256u, 2 * hardwareThreads());
    if (_size > cap)
        _size = cap;
    _workers.reserve(_size - 1);
    for (unsigned i = 0; i + 1 < _size; ++i)
        _workers.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
ThreadPool::work(Job &job, unsigned worker)
{
    // Static partition: this thread's fixed contiguous chunk.  The
    // mapping depends only on (count, poolSize, worker), so every loop
    // of a pool sweeps the same indices on the same thread — the
    // first-touch locality contract.
    const std::size_t lo = job.count * worker / job.poolSize;
    const std::size_t hi = job.count * (worker + 1) / job.poolSize;
    for (std::size_t i = lo; i < hi; ++i) {
        try {
            (*job.body)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.done.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    while (true) {
        // Hold a shared reference while working so the job outlives
        // any straggler even after the caller has returned.
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _stopping || (_job && _generation != seen);
            });
            if (_stopping)
                return;
            seen = _generation;
            job = _job;
        }
        work(*job, worker);
        {
            // Bracket the notify with the mutex so the caller cannot
            // check done, miss our increment, and sleep through the
            // notification (classic lost wakeup).
            std::lock_guard<std::mutex> lock(_mutex);
        }
        _finished.notify_one();
    }
}

void
ThreadPool::parallelForChunked(
    std::size_t count, const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (_size <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->count = count;
    job->poolSize = _size;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _job = job;
        ++_generation;
    }
    _wake.notify_all();

    // The caller is a full participant: pool thread 0.
    work(*job, 0);

    // Wait until every index has completed.  Workers that own an
    // empty chunk merely return; they hold their own shared_ptr, so
    // the job stays valid for them past this return.
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _finished.wait(lock, [&] {
            return job->done.load(std::memory_order_acquire) ==
                   job->count;
        });
        _job.reset();
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

void
parallelForChunked(ThreadPool *pool, std::size_t count,
                   const std::function<void(std::size_t)> &body)
{
    if (pool && pool->size() > 1) {
        pool->parallelForChunked(count, body);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
    }
}

} // namespace neofog
