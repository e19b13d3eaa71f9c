/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * A span is one timed call the benchmark makes into a simulator layer:
 * name ("<layer>.<what>"), start, end, the enclosing span and the run
 * it belongs to.  Spans stay in memory until the run ends and are then
 * written as one CSV file that perfbench/spans.py turns into the
 * per-layer table.  A disabled tracer records nothing and reads no
 * clock, so the untraced passes run the same code path at full speed.
 *
 * Recording is single-threaded: every span opens and closes on the
 * benchmark's main thread (the threaded pass times whole
 * FogSystem::runWindow calls from outside the pool).
 */

#ifndef NEOFOG_PERFBENCH_TRACER_HH
#define NEOFOG_PERFBENCH_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace neofog::perfbench {

/** Monotonic host time in nanoseconds (steady_clock). */
std::int64_t nowNs();

class Tracer
{
  public:
    /** Closes its span on destruction; inert when tracing is off. */
    class Span
    {
      public:
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span();

      private:
        friend class Tracer;
        Span(Tracer *tracer, std::size_t index)
            : _tracer(tracer), _index(index)
        {}

        Tracer *_tracer;
        std::size_t _index;
    };

    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /**
     * Open a span.  @p count is the number of calls the span covers
     * (a batch of per-node trace integrals), @p part the partition a
     * distributed span belongs to (-1 = none).  A span opened while no
     * other is open is the root of a new run.
     */
    Span span(const char *name, std::int64_t count = 1, int part = -1);

    /** Write every recorded span as CSV (header line first). */
    void write(const std::string &path) const;

  private:
    struct Record
    {
        std::uint32_t parent = 0; ///< 0 = root of its run
        std::uint32_t run = 0;
        const char *name = "";
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t count = 1;
        int part = -1;
    };

    void close(std::size_t index);

    bool _enabled;
    std::vector<Record> _spans;
    std::vector<std::size_t> _open; ///< indices of unclosed spans
    std::uint32_t _runs = 0;
};

} // namespace neofog::perfbench

#endif // NEOFOG_PERFBENCH_TRACER_HH
