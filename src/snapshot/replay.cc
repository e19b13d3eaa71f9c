#include "snapshot/replay.hh"

#include <string_view>

#include "snapshot/archive.hh"

namespace neofog::snapshot {

namespace {

/** First differing element index of two equal-typed vector payloads. */
DiffResult
diffVectors(const std::string &where, const Record &ra,
            const Record &rb)
{
    DiffResult d;
    d.diverged = true;
    d.where = where;
    d.path = std::string(ra.path);
    const auto *pa =
        reinterpret_cast<const unsigned char *>(ra.payload.data());
    const auto *pb =
        reinterpret_cast<const unsigned char *>(rb.payload.data());
    const std::uint64_t na = readLe64(pa);
    const std::uint64_t nb = readLe64(pb);
    if (na != nb) {
        d.detail = "element count " + std::to_string(na) + " vs " +
                   std::to_string(nb);
        return d;
    }
    const std::size_t elem = fieldElementSize(ra.type);
    for (std::uint64_t i = 0; i < na; ++i) {
        const std::string_view ea =
            ra.payload.substr(8 + i * elem, elem);
        const std::string_view eb =
            rb.payload.substr(8 + i * elem, elem);
        if (ea == eb)
            continue;
        d.detail = "element " + std::to_string(i) + ": ";
        if (ra.type == FieldType::VecPoint) {
            const auto *qa =
                reinterpret_cast<const unsigned char *>(ea.data());
            const auto *qb =
                reinterpret_cast<const unsigned char *>(eb.data());
            d.detail += "(tick " +
                std::to_string(
                    static_cast<std::int64_t>(readLe64(qa))) +
                ", " +
                formatPayload(FieldType::F64, ea.substr(8)) +
                ") vs (tick " +
                std::to_string(
                    static_cast<std::int64_t>(readLe64(qb))) +
                ", " +
                formatPayload(FieldType::F64, eb.substr(8)) + ")";
        } else {
            const FieldType scalar =
                ra.type == FieldType::VecBool ? FieldType::Bool
                : ra.type == FieldType::VecI32 ? FieldType::I32
                : ra.type == FieldType::VecU32 ? FieldType::U32
                : ra.type == FieldType::VecF64 ? FieldType::F64
                                               : FieldType::U64;
            if (scalar == FieldType::Bool) {
                d.detail += ea[0] ? "true vs false" : "false vs true";
            } else {
                d.detail += formatPayload(scalar, ea) + " vs " +
                            formatPayload(scalar, eb);
            }
        }
        return d;
    }
    d.detail = "payloads differ (padding?)";
    return d;
}

} // namespace

DiffResult
diffSections(const std::string &where, const std::string &a,
             const std::string &b)
{
    return diffRecords(where, RecordReader(a), RecordReader(b));
}

DiffResult
diffRecords(const std::string &where, RecordReader reader_a,
            RecordReader reader_b)
{
    DiffResult d;
    Record ra;
    Record rb;
    while (true) {
        const bool has_a = reader_a.next(ra);
        const bool has_b = reader_b.next(rb);
        if (!has_a && !has_b)
            return d; // identical
        if (has_a != has_b) {
            d.diverged = true;
            d.where = where;
            d.path = std::string(has_a ? ra.path : rb.path);
            d.detail = has_a
                ? "second stream ends early (first still has '" +
                      d.path + "')"
                : "first stream ends early (second still has '" +
                      d.path + "')";
            return d;
        }
        if (ra.path != rb.path || ra.type != rb.type) {
            d.diverged = true;
            d.where = where;
            d.path = std::string(ra.path);
            d.detail = "schema divergence: '" + std::string(ra.path) +
                       "' (" + fieldTypeName(ra.type) + ") vs '" +
                       std::string(rb.path) + "' (" +
                       fieldTypeName(rb.type) + ")";
            return d;
        }
        if (ra.payload == rb.payload)
            continue;
        if (fieldElementSize(ra.type) != 0)
            return diffVectors(where, ra, rb);
        d.diverged = true;
        d.where = where;
        d.path = std::string(ra.path);
        d.detail = formatPayload(ra.type, ra.payload) + " vs " +
                   formatPayload(rb.type, rb.payload);
        return d;
    }
}

DiffResult
diffSnapshots(const Snapshot &a, const Snapshot &b)
{
    DiffResult d;
    const auto header = [&](const char *field, std::uint64_t va,
                            std::uint64_t vb) {
        d.diverged = true;
        d.where = "header";
        d.path = field;
        d.detail = std::to_string(va) + " vs " + std::to_string(vb);
    };
    if (a.slot != b.slot) {
        header("slot", static_cast<std::uint64_t>(a.slot),
               static_cast<std::uint64_t>(b.slot));
        return d;
    }
    if (a.seed != b.seed) {
        header("seed", a.seed, b.seed);
        return d;
    }
    if (a.chains != b.chains) {
        header("chains", a.chains, b.chains);
        return d;
    }
    if (a.sections.size() != b.sections.size()) {
        header("sections", a.sections.size(), b.sections.size());
        d.detail = "section count " + d.detail;
        return d;
    }
    for (std::size_t i = 0; i < a.sections.size(); ++i) {
        const Section &sa = a.sections[i];
        const Section &sb = b.sections[i];
        if (sa.name != sb.name) {
            d.diverged = true;
            d.where = "header";
            d.path = "sections[" + std::to_string(i) + "]";
            d.detail = "'" + sa.name + "' vs '" + sb.name + "'";
            return d;
        }
        const DiffResult sec =
            diffRecords(sa.name, a.records(sa), b.records(sb));
        if (sec.diverged)
            return sec;
    }
    return d;
}

} // namespace neofog::snapshot
