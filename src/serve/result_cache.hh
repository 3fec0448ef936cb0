/**
 * @file
 * The result store: a sharded, byte-bounded LRU over simulation
 * result payloads, keyed by campaign content keys, and the only
 * writer of result journals.
 *
 * The content key (campaignJobKey()) names a job by everything that
 * can change its result, so one SimResult JSON payload per key is a
 * complete, stale-proof entry. Every plane that runs the evaluation
 * matrix records through this store: a campaign opens it on its
 * journal.jsonl, a campaign-worker on its shard journal (both with
 * no eviction and no compaction), and powerchopd on its cache.jsonl.
 * The store is sharded by key so concurrent connections rarely
 * contend on one mutex, bounded by payload bytes with per-shard LRU
 * eviction, and (optionally) backed by the journal format
 * (common/journal.hh): every insert is appended write-ahead to
 * `journalPath`, and a reopened store warm-starts by replaying that
 * journal, so a SIGKILL loses nothing that was ever recorded.
 *
 * Failed and timed-out outcomes are journaled too (putFailure()), as
 * history: they never enter the LRU and warm start skips them, so
 * such a job reruns — exactly as a resumed campaign treats them.
 *
 * Durability invariant: between compactions the journal is an
 * append-only *superset* of the in-memory cache — eviction frees
 * memory but never erases the journal record. Compaction bounds the
 * file: when dead records (evicted entries, duplicate appends) exceed
 * `compactDeadRatio` of the file, the journal is atomically rewritten
 * (temp + fsync + rename) from the live entries in LRU order, so
 * warm-start cost is bounded by cache size, not daemon lifetime.
 * Compaction invariant: a compacted journal warm-starts to the
 * identical cache — same keys, same payload bytes, same recency
 * order — as the uncompacted journal would have. Replay order is
 * first-appearance order, so a journal larger than the budget
 * warm-starts to the most recently appended entries (earlier records
 * are evicted first).
 *
 * Byte-identity invariant: payloads are stored verbatim and returned
 * verbatim; the cache never re-renders JSON. A hit therefore serves
 * the exact bytes a direct runCampaign() would have written for the
 * same key.
 */

#ifndef POWERCHOP_SERVE_RESULT_CACHE_HH
#define POWERCHOP_SERVE_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/journal.hh"
#include "common/stats.hh"

namespace powerchop
{

/** Sizing and durability knobs of a ResultCache. */
struct ResultCacheOptions
{
    /** Total payload-byte budget across all shards. At least one
     *  entry per shard is always admitted, so a single oversized
     *  payload can exceed its shard's slice rather than thrash. */
    std::size_t maxBytes = 256u << 20;

    /** Shard count (keys map to shards by low bits). */
    unsigned shards = 8;

    /** Journal path for write-ahead inserts + warm start; empty
     *  disables durability (a purely in-memory cache). */
    std::string journalPath;

    /** Compact the journal when dead records (evicted, duplicate or
     *  non-ok) exceed this fraction of the file; <= 0 disables
     *  compaction. */
    double compactDeadRatio = 0.5;

    /** Never compact a journal smaller than this many records —
     *  rewriting a tiny file buys nothing. */
    std::uint64_t compactMinRecords = 1024;
};

/** Point-in-time counters aggregated across shards. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0; ///< Keys resident now.
    std::uint64_t bytes = 0;   ///< Payload bytes resident now.
    std::uint64_t compactions = 0;        ///< Journal rewrites.
    std::uint64_t journalRecords = 0;     ///< Lines on disk now.
    std::uint64_t journalDeadRecords = 0; ///< Of those, dead.
};

/**
 * Sharded byte-bounded LRU of content-keyed result payloads.
 * Thread-safe: get/put/stats may be called from any thread.
 */
class ResultCache
{
  public:
    /** Opens (and replays) the journal when one is configured;
     *  throws IoError when the journal path exists but is
     *  unreadable or unwritable. */
    explicit ResultCache(const ResultCacheOptions &opts = {});

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Look up a key, refreshing its LRU position.
     * @param payload When non-null, receives the stored payload
     *                verbatim on a hit.
     * @return true on a hit.
     */
    bool get(std::uint64_t key, std::string *payload = nullptr);

    /**
     * Insert (or refresh) a payload, evicting LRU entries as needed
     * and appending a write-ahead journal record for fresh keys.
     * Re-putting an existing key refreshes recency only: content
     * keys are deterministic, so the payload cannot have changed.
     */
    void put(std::uint64_t key, const std::string &payload);

    /**
     * Durably journal a terminal non-ok outcome: `status` is its
     * JobStatus name ("failed", "timed-out") and `payload` its
     * single-line error object. The record is history, not a result:
     * it is never admitted to the LRU (get() keeps missing) and warm
     * start skips it, so the job reruns. No-op without a journal.
     */
    void putFailure(std::uint64_t key, const std::string &status,
                    const std::string &payload);

    /** Aggregate counters over all shards. */
    ResultCacheStats stats() const;

    /** Records admitted from the journal at construction. */
    std::size_t warmStarted() const { return warmStarted_; }

    /** Journal lines the construction-time replay dropped as corrupt
     *  (interior CRC failures) or torn (a truncated final line). @{ */
    std::size_t corruptedRecords() const { return corrupted_; }
    std::size_t truncatedRecords() const { return truncated_; }
    /** @} */

    /** Sample every journal fsync into `hist` (nanoseconds); the
     *  histogram must outlive the store, nullptr detaches. */
    void setFlushLatencyHistogram(stats::Log2Histogram *hist);

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::string payload;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; ///< Front = most recently used.
        std::unordered_map<std::uint64_t,
                           std::list<Entry>::iterator>
            index;
        std::size_t bytes = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
    };

    Shard &shardFor(std::uint64_t key);
    void insertLocked(Shard &sh, std::uint64_t key,
                      const std::string &payload);
    void append(std::uint64_t key, const std::string &status,
                const std::string &payload, bool live);
    void openJournalLocked();
    void maybeCompactLocked();

    std::size_t shardBudget_;
    std::vector<Shard> shards_;
    std::string journalPath_;
    double compactDeadRatio_ = 0;
    std::uint64_t compactMinRecords_ = 0;

    /** Serializes journal appends and compaction; always acquired
     *  *before* any shard mutex (compaction snapshots shards while
     *  holding it), never the other way around — put() releases its
     *  shard lock before journaling. */
    std::mutex journalMutex_;
    std::unique_ptr<JournalWriter> journal_;
    stats::Log2Histogram *flushLatencyNs_ = nullptr;
    /** Written under journalMutex_, read lock-free by stats(). */
    std::atomic<std::uint64_t> journalRecords_{0};
    std::atomic<std::uint64_t> journalDead_{0};
    std::atomic<std::uint64_t> compactions_{0};
    std::size_t warmStarted_ = 0;
    std::size_t corrupted_ = 0, truncated_ = 0;
};

} // namespace powerchop

#endif // POWERCHOP_SERVE_RESULT_CACHE_HH
