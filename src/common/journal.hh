/**
 * @file
 * Write-ahead result journal for simulation campaigns.
 *
 * One record per line of JSONL:
 *
 *   {"key":"<16-hex>","status":"ok","crc":"<8-hex>","payload":{...}}
 *
 * `key` is the job's deterministic content key (campaign.hh), `status`
 * a terminal JobStatus name, and `payload` the job's SimResult JSON
 * (or an error-description object for non-ok records). `crc` is a
 * CRC-32 over "<key-hex>:<status>:<payload>", so a reader can tell a
 * record written completely from one torn by a crash or corrupted on
 * disk.
 *
 * The writer appends and fsyncs record-by-record (write-ahead: a job's
 * record is durable before the campaign counts it done). The reader
 * tolerates every torn-file shape a SIGKILL can produce: a truncated
 * final line is silently dropped (the job just reruns), an interior
 * line with a bad checksum is skipped with a warning, and duplicate
 * keys resolve last-write-wins (a rerun's record supersedes).
 */

#ifndef POWERCHOP_COMMON_JOURNAL_HH
#define POWERCHOP_COMMON_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace powerchop
{

/** One journal entry: a job's terminal state. */
struct JournalRecord
{
    /** Deterministic job content key (campaignJobKey()). */
    std::uint64_t key = 0;

    /** Terminal status name ("ok", "failed", "timed-out", ...). */
    std::string status;

    /** Single-line JSON payload: the SimResult for ok records, an
     *  error object otherwise. Must not contain newlines. */
    std::string payload;
};

/** CRC-32 (IEEE 802.3) of a byte string, as guarded by `crc`. */
std::uint32_t journalCrc32(const std::string &data);

/** Render one record as its JSONL line (no trailing newline). */
std::string formatJournalLine(const JournalRecord &rec);

/**
 * Parse one journal line. @return false when the line is torn or
 * corrupt (bad structure or checksum mismatch).
 */
bool parseJournalLine(const std::string &line, JournalRecord &out);

/** What loadJournal() recovered from a journal file. */
struct JournalReplay
{
    /** Valid records, deduplicated last-write-wins, in order of each
     *  key's first appearance. */
    std::vector<JournalRecord> records;

    std::size_t lines = 0;      ///< Physical lines seen.
    std::size_t corrupted = 0;  ///< Interior lines failing the CRC.
    std::size_t truncated = 0;  ///< Torn final line (0 or 1).
    std::size_t duplicates = 0; ///< Superseded earlier records.

    /** @return the index of `key` in records, or npos. */
    std::size_t find(std::uint64_t key) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/**
 * Read and validate a journal.
 *
 * A file that cannot be opened — missing, permission-denied, a
 * directory — throws IoError naming the path and errno text. This is
 * deliberately distinct from an *empty* journal (a valid, zero-record
 * replay): conflating the two once made `--resume` on a mistyped
 * directory silently re-run the whole campaign. Unreadable *content*
 * still degrades gracefully (corrupt lines are skipped, the torn
 * final line is dropped); only failure to open the file is loud.
 */
JournalReplay loadJournal(const std::string &path);

/**
 * Variant for call sites where "no journal yet" is an expected state
 * (a fresh campaign directory, a shard whose worker never started):
 * a missing file returns an empty replay; every other open failure
 * still throws IoError like loadJournal().
 */
JournalReplay loadJournalIfPresent(const std::string &path);

/**
 * Append-only journal writer with per-record durability.
 *
 * append() formats, writes and fsyncs one record before returning, so
 * a crash after append() returns can never lose that record. The
 * writer registers a logging flush hook armed while data is buffered,
 * making fatal()/panic() exit paths drain it exactly once.
 * Thread-safe: campaign workers append concurrently.
 */
class JournalWriter
{
  public:
    /** Open `path` for appending; throws IoError on failure. */
    explicit JournalWriter(const std::string &path);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Durably append one record (write + flush + fsync). Throws
     *  IoError if the record cannot be made durable. */
    void append(const JournalRecord &rec);

    /** Flush and fsync any buffered data (no-op when clean). */
    void flush();

    /** Records appended through this writer. */
    std::size_t appended() const { return appended_; }

    /**
     * Attach a latency histogram sampled (in nanoseconds) around
     * every durable flush — the fflush+fsync pair that dominates
     * write-ahead cost. The histogram must outlive the writer;
     * nullptr detaches. Observation only: no journal bytes change.
     */
    void setFlushLatencyHistogram(stats::Log2Histogram *hist)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flushLatencyNs_ = hist;
    }

  private:
    void flushLocked();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
    bool dirty_ = false;
    std::size_t appended_ = 0;
    int flushHookId_ = 0;
    stats::Log2Histogram *flushLatencyNs_ = nullptr;
};

} // namespace powerchop

#endif // POWERCHOP_COMMON_JOURNAL_HH
