#include "serve/result_cache.hh"

#include "common/atomic_file.hh"
#include "common/logging.hh"

namespace powerchop
{

namespace
{

/** Accounting cost of one entry: payload bytes plus a fixed overhead
 *  standing in for the list node, the index slot and the key, so a
 *  flood of tiny payloads cannot blow past the budget "for free". */
std::size_t
entryCost(const std::string &payload)
{
    return payload.size() + 64;
}

} // namespace

ResultCache::ResultCache(const ResultCacheOptions &opts)
    : shardBudget_(opts.maxBytes /
                   (opts.shards ? opts.shards : 1)),
      shards_(opts.shards ? opts.shards : 1),
      journalPath_(opts.journalPath),
      compactDeadRatio_(opts.compactDeadRatio),
      compactMinRecords_(opts.compactMinRecords)
{
    if (opts.journalPath.empty())
        return;
    // Replay before opening the writer for append: loadJournal
    // dedups last-write-wins (each key appears once), and insertion
    // through the normal (journal-less) path reproduces LRU order =
    // append order.
    const JournalReplay replay =
        loadJournalIfPresent(opts.journalPath);
    corrupted_ = replay.corrupted;
    truncated_ = replay.truncated;
    for (const JournalRecord &rec : replay.records) {
        if (rec.status != "ok")
            continue;
        Shard &sh = shardFor(rec.key);
        std::lock_guard<std::mutex> lock(sh.mutex);
        insertLocked(sh, rec.key, rec.payload);
        ++warmStarted_;
    }
    // Warm-start admissions are replays, not traffic: the counters
    // must describe what the daemon served, not what it remembered.
    std::uint64_t live = 0;
    for (Shard &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        sh.insertions = 0;
        sh.evictions = 0;
        live += sh.lru.size();
    }
    // Every physical line not backing a resident entry — superseded,
    // non-ok, corrupt, torn, or evicted during replay — is dead
    // weight a compaction would shed.
    journalRecords_.store(replay.lines, std::memory_order_relaxed);
    journalDead_.store(replay.lines > live ? replay.lines - live : 0,
                       std::memory_order_relaxed);
    openJournalLocked();
}

void
ResultCache::openJournalLocked()
{
    journal_ = std::make_unique<JournalWriter>(journalPath_);
    journal_->setFlushLatencyHistogram(flushLatencyNs_);
}

void
ResultCache::setFlushLatencyHistogram(stats::Log2Histogram *hist)
{
    std::lock_guard<std::mutex> jlock(journalMutex_);
    flushLatencyNs_ = hist;
    if (journal_)
        journal_->setFlushLatencyHistogram(hist);
}

ResultCache::Shard &
ResultCache::shardFor(std::uint64_t key)
{
    // Content keys are FNV-1a hashes: the low bits are already
    // well mixed, so plain modulo spreads shards evenly.
    return shards_[key % shards_.size()];
}

bool
ResultCache::get(std::uint64_t key, std::string *payload)
{
    Shard &sh = shardFor(key);
    std::lock_guard<std::mutex> lock(sh.mutex);
    const auto it = sh.index.find(key);
    if (it == sh.index.end()) {
        ++sh.misses;
        return false;
    }
    ++sh.hits;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    if (payload)
        *payload = it->second->payload;
    return true;
}

void
ResultCache::insertLocked(Shard &sh, std::uint64_t key,
                          const std::string &payload)
{
    const std::size_t cost = entryCost(payload);
    while (!sh.lru.empty() && sh.bytes + cost > shardBudget_) {
        const Entry &victim = sh.lru.back();
        sh.bytes -= entryCost(victim.payload);
        sh.index.erase(victim.key);
        sh.lru.pop_back();
        ++sh.evictions;
        // An evicted entry's journal record is now dead weight
        // (journal_ is null during replay: the constructor accounts
        // for replay-time deadness wholesale).
        if (journal_)
            journalDead_.fetch_add(1, std::memory_order_relaxed);
    }
    sh.lru.push_front(Entry{key, payload});
    sh.index[key] = sh.lru.begin();
    sh.bytes += cost;
    ++sh.insertions;
}

void
ResultCache::put(std::uint64_t key, const std::string &payload)
{
    panicIf(payload.find('\n') != std::string::npos,
            "ResultCache payloads must be single-line JSON");
    bool fresh = false;
    {
        Shard &sh = shardFor(key);
        std::lock_guard<std::mutex> lock(sh.mutex);
        const auto it = sh.index.find(key);
        if (it != sh.index.end()) {
            // Deterministic keys: same key, same payload. Refresh
            // recency and stop — no bytes move, nothing to journal.
            sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        } else {
            insertLocked(sh, key, payload);
            fresh = true;
        }
    }
    if (fresh)
        append(key, "ok", payload, true);
}

void
ResultCache::putFailure(std::uint64_t key, const std::string &status,
                        const std::string &payload)
{
    append(key, status, payload, false);
}

void
ResultCache::append(std::uint64_t key, const std::string &status,
                    const std::string &payload, bool live)
{
    if (journalPath_.empty())
        return;
    // Write-ahead relative to future restarts: the record is durable
    // (append fsyncs) before put()/putFailure() returns, so a process
    // killed any time later still replays it.
    JournalRecord rec;
    rec.key = key;
    rec.status = status;
    rec.payload = payload;
    std::lock_guard<std::mutex> jlock(journalMutex_);
    journal_->append(rec);
    journalRecords_.fetch_add(1, std::memory_order_relaxed);
    if (!live)
        journalDead_.fetch_add(1, std::memory_order_relaxed);
    maybeCompactLocked();
}

void
ResultCache::maybeCompactLocked()
{
    if (compactDeadRatio_ <= 0 || !journal_)
        return;
    const std::uint64_t records =
        journalRecords_.load(std::memory_order_relaxed);
    const std::uint64_t dead =
        journalDead_.load(std::memory_order_relaxed);
    if (records < compactMinRecords_ ||
        static_cast<double>(dead) <
            compactDeadRatio_ * static_cast<double>(records)) {
        return;
    }
    // Snapshot live entries least-recent first: replay inserts in
    // file order and first-appearance order *is* recency order, so
    // the compacted journal warm-starts to the identical cache —
    // same keys, same bytes, same LRU order.
    std::string content;
    std::uint64_t live = 0;
    for (Shard &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        for (auto it = sh.lru.rbegin(); it != sh.lru.rend(); ++it) {
            JournalRecord rec;
            rec.key = it->key;
            rec.status = "ok";
            rec.payload = it->payload;
            content += formatJournalLine(rec);
            content += '\n';
            ++live;
        }
    }
    // Close the append fd across the rename so no write can land in
    // the doomed file; atomicWriteFile's temp+fsync+rename means a
    // crash at any point leaves a complete journal (old or new).
    journal_.reset();
    if (!atomicWriteFileOk(journalPath_, content)) {
        static LogRateLimiter limiter(0.2, 2.0);
        warnLimited(limiter,
                    "cache journal compaction of %s failed; "
                    "continuing with the uncompacted journal",
                    journalPath_.c_str());
        openJournalLocked();
        return;
    }
    openJournalLocked();
    journalRecords_.store(live, std::memory_order_relaxed);
    journalDead_.store(0, std::memory_order_relaxed);
    compactions_.fetch_add(1, std::memory_order_relaxed);
}

ResultCacheStats
ResultCache::stats() const
{
    ResultCacheStats out;
    for (const Shard &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        out.hits += sh.hits;
        out.misses += sh.misses;
        out.insertions += sh.insertions;
        out.evictions += sh.evictions;
        out.entries += sh.lru.size();
        out.bytes += sh.bytes;
    }
    out.compactions = compactions_.load(std::memory_order_relaxed);
    out.journalRecords =
        journalRecords_.load(std::memory_order_relaxed);
    out.journalDeadRecords =
        journalDead_.load(std::memory_order_relaxed);
    return out;
}

} // namespace powerchop
