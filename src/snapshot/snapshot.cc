#include "snapshot/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "sim/logging.hh"
#include "sim/report_io.hh"
#include "snapshot/archive.hh"

namespace neofog::snapshot {

namespace {

namespace fs = std::filesystem;

std::string
toHex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
parseHex64(const std::string &s, const std::string &what)
{
    if (s.size() != 16 ||
        s.find_first_not_of("0123456789abcdef") != std::string::npos)
        fatal("snapshot header field '", what,
              "' is not a 16-digit hex hash: '", s, "'");
    std::uint64_t v = 0;
    for (const char c : s)
        v = (v << 4) |
            static_cast<std::uint64_t>(
                c <= '9' ? c - '0' : c - 'a' + 10);
    return v;
}

/** FNV-1a of every section payload, in section order. */
std::vector<std::uint64_t>
sectionHashes(const std::vector<Section> &sections)
{
    std::vector<std::string_view> payloads;
    payloads.reserve(sections.size());
    for (const Section &s : sections)
        payloads.emplace_back(s.data);
    return fnv1aEach(payloads);
}

/** Header field lookup that fails loudly when absent. */
const report_io::JsonValue &
member(const report_io::JsonValue &obj, const char *key)
{
    const report_io::JsonValue *v = obj.find(key);
    if (v == nullptr)
        fatal("snapshot header is missing '", key, "'");
    return *v;
}

} // namespace

const Section *
Snapshot::find(std::string_view name) const
{
    for (const Section &s : sections) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::string
snapshotFileName(std::int64_t slot)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "snap-%010lld.nfsnap",
                  static_cast<long long>(slot));
    return buf;
}

void
writeSnapshot(const std::string &path, const Snapshot &snap)
{
    std::uint64_t config_hash = snap.configHash;
    if (const Section *cfg = snap.find("config"))
        config_hash = fnv1a(cfg->data);
    const std::vector<std::uint64_t> hashes = sectionHashes(snap.sections);

    // Header JSON with per-section offsets (relative to header end).
    std::ostringstream header;
    {
        report_io::JsonWriter w(header);
        w.beginObject();
        w.key("schema").value(kSchema);
        w.key("slot").value(static_cast<std::uint64_t>(snap.slot));
        w.key("config_hash").value(toHex64(config_hash));
        w.key("seed").value(snap.seed);
        w.key("chains").value(snap.chains);
        w.key("sections").beginArray();
        std::uint64_t offset = 0;
        for (std::size_t i = 0; i < snap.sections.size(); ++i) {
            const Section &s = snap.sections[i];
            w.beginObject();
            w.key("name").value(s.name);
            w.key("offset").value(offset);
            w.key("size").value(
                static_cast<std::uint64_t>(s.data.size()));
            w.key("hash").value(toHex64(hashes[i]));
            w.endObject();
            offset += s.data.size();
        }
        w.endArray();
        w.endObject();
    }
    const std::string header_json = header.str();

    std::string blob;
    blob.reserve(16 + header_json.size());
    blob.append(kMagic, 8);
    appendLe32(blob, kEndianMarker);
    appendLe32(blob, static_cast<std::uint32_t>(header_json.size()));
    blob.append(header_json);

    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    // Atomic publish: a reader either sees the complete file or no
    // file, never a torn checkpoint.
    const fs::path tmp = target.string() + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open snapshot file for writing: ",
                  tmp.string());
        os.write(blob.data(),
                 static_cast<std::streamsize>(blob.size()));
        for (const Section &s : snap.sections)
            os.write(s.data.data(),
                     static_cast<std::streamsize>(s.data.size()));
        os.flush();
        if (!os)
            fatal("write failed for snapshot file: ", tmp.string());
    }
    fs::rename(tmp, target, ec);
    if (ec)
        fatal("cannot publish snapshot ", target.string(), ": ",
              ec.message());
}

Snapshot
readSnapshot(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open snapshot file: ", path);
    std::error_code ec;
    const std::uintmax_t file_bytes = fs::file_size(path, ec);
    if (ec)
        fatal("cannot read snapshot file ", path, ": ", ec.message());
    // One sized read; a short one leaves the tail for the truncation
    // checks below to reject.
    std::string blob(file_bytes, '\0');
    is.read(blob.data(), static_cast<std::streamsize>(file_bytes));
    blob.resize(static_cast<std::size_t>(is.gcount()));

    if (blob.size() < 16)
        fatal("snapshot file ", path, " is truncated (", blob.size(),
              " bytes, need at least 16)");
    if (std::memcmp(blob.data(), kMagic, 8) != 0)
        fatal("snapshot file ", path,
              " has bad magic (not a neofog snapshot?)");
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(blob.data());
    const std::uint32_t marker = readLe32(bytes + 8);
    if (marker != kEndianMarker) {
        // A marker with reversed bytes means the file itself is fine
        // but was produced by a big-endian writer.
        std::uint32_t swapped = 0;
        for (int i = 0; i < 4; ++i)
            swapped = (swapped << 8) | ((marker >> (8 * i)) & 0xFF);
        if (swapped == kEndianMarker)
            fatal("snapshot file ", path,
                  " was written on an incompatible (big-endian) "
                  "host; refusing to reinterpret it");
        fatal("snapshot file ", path,
              " has a corrupt endianness marker");
    }
    const std::uint32_t header_len = readLe32(bytes + 12);
    if (blob.size() - 16 < header_len)
        fatal("snapshot file ", path,
              " is truncated inside its header");

    const report_io::JsonValue doc = [&] {
        try {
            return report_io::parseJson(
                std::string_view(blob).substr(16, header_len));
        } catch (const FatalError &err) {
            fatal("snapshot file ", path, " has a corrupt header: ",
                  err.what());
        }
    }();
    const std::string &schema = member(doc, "schema").asString();
    if (schema != kSchema)
        fatal("snapshot file ", path, " has schema '", schema,
              "', this build reads '", kSchema, "'");

    Snapshot snap;
    snap.slot =
        static_cast<std::int64_t>(member(doc, "slot").asU64());
    snap.configHash =
        parseHex64(member(doc, "config_hash").asString(),
                   "config_hash");
    snap.seed = member(doc, "seed").asU64();
    snap.chains = member(doc, "chains").asU64();

    const std::string_view body =
        std::string_view(blob).substr(16 + header_len);
    std::vector<std::uint64_t> stored;
    for (const auto &sec : member(doc, "sections").items()) {
        const std::string &name = member(sec, "name").asString();
        const std::uint64_t offset = member(sec, "offset").asU64();
        const std::uint64_t size = member(sec, "size").asU64();
        if (offset > body.size() || size > body.size() - offset)
            fatal("snapshot file ", path, " section '", name,
                  "' lies outside the file (truncated?)");
        snap.sections.push_back(
            {name, std::string(body.substr(offset, size))});
        stored.push_back(
            parseHex64(member(sec, "hash").asString(), "hash"));
    }
    const std::vector<std::uint64_t> actual =
        sectionHashes(snap.sections);
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (actual[i] != stored[i])
            fatal("snapshot file ", path, " section '",
                  snap.sections[i].name, "' fails its checksum (stored ",
                  toHex64(stored[i]), ", computed ",
                  toHex64(actual[i]), ") — refusing a corrupt resume");
    }

    if (const Section *cfg = snap.find("config")) {
        if (fnv1a(cfg->data) != snap.configHash)
            fatal("snapshot file ", path,
                  " config_hash does not match its config section "
                  "— header/config mismatch");
    }
    return snap;
}

std::optional<LoadedSnapshot>
readLatestSnapshot(const std::string &dir)
{
    std::vector<std::pair<std::int64_t, std::string>> candidates;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        long long slot = 0;
        if (std::sscanf(name.c_str(), "snap-%lld.nfsnap", &slot) != 1
            || name != snapshotFileName(slot))
            continue;
        candidates.emplace_back(slot, entry.path().string());
    }
    std::sort(candidates.begin(), candidates.end(), std::greater<>());
    for (auto &[slot, path] : candidates) {
        try {
            Snapshot snap = readSnapshot(path);
            return LoadedSnapshot{std::move(path), std::move(snap)};
        } catch (const FatalError &) {
            // Torn or corrupt candidate; fall back to the next newest.
        }
    }
    return std::nullopt;
}

std::string
latestSnapshot(const std::string &dir)
{
    const std::optional<LoadedSnapshot> latest = readLatestSnapshot(dir);
    return latest ? latest->path : std::string();
}

LoadedSnapshot
loadSnapshot(const std::string &path)
{
    std::error_code ec;
    if (!fs::is_directory(path, ec))
        return {path, readSnapshot(path)};
    std::optional<LoadedSnapshot> latest = readLatestSnapshot(path);
    if (!latest)
        fatal("no valid snapshot found in directory ", path);
    return std::move(*latest);
}

} // namespace neofog::snapshot
