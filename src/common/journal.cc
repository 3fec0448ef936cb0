#include "common/journal.hh"

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/logging.hh"

namespace powerchop
{

namespace
{

/** CRC-32 (IEEE) lookup table, built once. */
const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/** The byte string the record checksum covers. */
std::string
crcCoverage(const JournalRecord &rec)
{
    return csprintf("%016llx:%s:",
                    static_cast<unsigned long long>(rec.key),
                    rec.status.c_str()) +
           rec.payload;
}

/** Scan `n` hex digits at `pos`; false on any non-hex char. */
bool
parseHex(const std::string &s, std::size_t pos, std::size_t n,
         std::uint64_t &out)
{
    if (pos + n > s.size())
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const char c = s[pos + i];
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

/** Advance past `expect` at `pos`; false when the text differs. */
bool
expectAt(const std::string &s, std::size_t &pos, const char *expect)
{
    const std::size_t n = std::strlen(expect);
    if (s.compare(pos, n, expect) != 0)
        return false;
    pos += n;
    return true;
}

} // namespace

std::uint32_t
journalCrc32(const std::string &data)
{
    const auto &table = crcTable();
    std::uint32_t crc = 0xffffffffu;
    for (unsigned char c : data)
        crc = (crc >> 8) ^ table[(crc ^ c) & 0xffu];
    return crc ^ 0xffffffffu;
}

std::string
formatJournalLine(const JournalRecord &rec)
{
    return csprintf(
        "{\"key\":\"%016llx\",\"status\":\"%s\",\"crc\":\"%08x\","
        "\"payload\":",
        static_cast<unsigned long long>(rec.key), rec.status.c_str(),
        journalCrc32(crcCoverage(rec))) +
        rec.payload + "}";
}

bool
parseJournalLine(const std::string &line, JournalRecord &out)
{
    std::size_t pos = 0;
    if (!expectAt(line, pos, "{\"key\":\""))
        return false;

    std::uint64_t key = 0;
    if (!parseHex(line, pos, 16, key))
        return false;
    pos += 16;

    if (!expectAt(line, pos, "\",\"status\":\""))
        return false;
    const std::size_t status_end = line.find('"', pos);
    if (status_end == std::string::npos)
        return false;
    const std::string status = line.substr(pos, status_end - pos);
    pos = status_end;

    if (!expectAt(line, pos, "\",\"crc\":\""))
        return false;
    std::uint64_t crc = 0;
    if (!parseHex(line, pos, 8, crc))
        return false;
    pos += 8;

    if (!expectAt(line, pos, "\",\"payload\":"))
        return false;
    if (line.empty() || line.back() != '}' || pos >= line.size())
        return false;
    const std::string payload =
        line.substr(pos, line.size() - pos - 1);

    JournalRecord rec;
    rec.key = key;
    rec.status = status;
    rec.payload = payload;
    if (journalCrc32(crcCoverage(rec)) !=
        static_cast<std::uint32_t>(crc)) {
        return false;
    }
    out = std::move(rec);
    return true;
}

std::size_t
JournalReplay::find(std::uint64_t key) const
{
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].key == key)
            return i;
    }
    return npos;
}

JournalReplay
loadJournal(const std::string &path)
{
    JournalReplay replay;

    // Open failure is NOT an empty journal: resuming against a wrong
    // path must fail loudly, not silently rerun everything. The stat
    // also rejects non-regular files — ifstream "opens" a directory
    // without error and would read it as an empty journal.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        throw IoError(csprintf("%s: cannot open journal: %s",
                               path.c_str(), std::strerror(errno)));
    }
    if (!S_ISREG(st.st_mode)) {
        throw IoError(csprintf("%s: journal is not a regular file",
                               path.c_str()));
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw IoError(csprintf("%s: cannot open journal: %s",
                               path.c_str(), std::strerror(errno)));
    }

    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const bool ends_with_newline =
        !text.empty() && text.back() == '\n';

    // Key -> index into replay.records: dedupe in O(1) per line.
    std::unordered_map<std::uint64_t, std::size_t> slot;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        const bool final_fragment = end == std::string::npos;
        if (final_fragment)
            end = text.size();
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        ++replay.lines;

        JournalRecord rec;
        if (!parseJournalLine(line, rec)) {
            if (final_fragment && !ends_with_newline) {
                // A write torn by a crash mid-record: the job simply
                // reruns. Expected after a SIGKILL, so no warning.
                ++replay.truncated;
            } else {
                ++replay.corrupted;
                warn("journal %s: line %zu fails its checksum; "
                     "record dropped, its job will rerun",
                     path.c_str(), replay.lines);
            }
            continue;
        }

        const auto [it, fresh] =
            slot.emplace(rec.key, replay.records.size());
        if (!fresh) {
            // Last write wins: a resumed campaign's rerun supersedes
            // the earlier record for the same job, in the slot of its
            // first appearance.
            replay.records[it->second] = std::move(rec);
            ++replay.duplicates;
        } else {
            replay.records.push_back(std::move(rec));
        }
    }
    return replay;
}

JournalReplay
loadJournalIfPresent(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 && errno == ENOENT)
        return JournalReplay{}; // no journal yet: a fresh campaign
    return loadJournal(path);
}

JournalWriter::JournalWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) {
        throw IoError(csprintf("%s: open for append failed: %s",
                               path.c_str(), std::strerror(errno)));
    }
    flushHookId_ = registerFlushHook(
        "campaign-journal", [this] { flush(); });
}

JournalWriter::~JournalWriter()
{
    unregisterFlushHook(flushHookId_);
    if (file_) {
        try {
            flush();
        } catch (const IoError &e) {
            warn("%s", e.what());
        }
        std::fclose(file_);
    }
}

void
JournalWriter::append(const JournalRecord &rec)
{
    panicIf(rec.payload.find('\n') != std::string::npos,
            "journal payloads must be single-line JSON");
    const std::string line = formatJournalLine(rec) + "\n";

    std::lock_guard<std::mutex> lock(mutex_);
    dirty_ = true;
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
        line.size()) {
        // Data may be half-buffered: arm the exit-path hook so a
        // subsequent fatal() still tries to drain what it can.
        armFlushHook(flushHookId_);
        throw IoError(csprintf("%s: journal append failed: %s",
                               path_.c_str(), std::strerror(errno)));
    }
    flushLocked();
    ++appended_;
}

void
JournalWriter::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    flushLocked();
}

void
JournalWriter::flushLocked()
{
    if (!dirty_)
        return;
    const std::int64_t start =
        flushLatencyNs_ ? monotonicNanos() : 0;
    if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
        armFlushHook(flushHookId_);
        throw IoError(csprintf("%s: journal flush failed: %s",
                               path_.c_str(), std::strerror(errno)));
    }
    if (flushLatencyNs_) {
        flushLatencyNs_->sample(
            static_cast<std::uint64_t>(monotonicNanos() - start));
    }
    dirty_ = false;
}

} // namespace powerchop
