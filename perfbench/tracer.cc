#include "tracer.hh"

#include <chrono>
#include <fstream>

#include "sim/logging.hh"

namespace neofog::perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Span::~Span()
{
    if (_tracer != nullptr)
        _tracer->close(_index);
}

Tracer::Span
Tracer::span(const char *name, std::int64_t count, int part)
{
    if (!_enabled)
        return Span(nullptr, 0);
    Record rec;
    if (_open.empty()) {
        rec.run = ++_runs;
    } else {
        // Span ids in the file are 1-based record positions.
        rec.parent = static_cast<std::uint32_t>(_open.back() + 1);
        rec.run = _spans[_open.back()].run;
    }
    rec.name = name;
    rec.count = count;
    rec.part = part;
    const std::size_t index = _spans.size();
    _spans.push_back(rec);
    _open.push_back(index);
    _spans[index].start = nowNs();
    return Span(this, index);
}

void
Tracer::close(std::size_t index)
{
    const std::int64_t end = nowNs();
    NEOFOG_ASSERT(!_open.empty() && _open.back() == index,
                  "spans must close innermost first");
    _spans[index].end = end;
    _open.pop_back();
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write span file ", path);
    os << "id,parent,run,name,start_ns,end_ns,count,part\n";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Record &r = _spans[i];
        os << i + 1 << ',' << r.parent << ',' << r.run << ',' << r.name
           << ',' << r.start << ',' << r.end << ',' << r.count << ','
           << r.part << '\n';
    }
    if (!os)
        fatal("short write to span file ", path);
}

} // namespace neofog::perfbench
