#include "sim/statusboard.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <type_traits>
#include <variant>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{

const char *const kStatusSchema = "powerchop-status-v1";

namespace
{

/** Doubles in snapshots: fixed six decimals, locale-independent. */
std::string
fmtDouble(double v)
{
    return csprintf("%.6f", v);
}

/**
 * Clamp an ETA estimate to the −1 "unknown" sentinel.
 *
 * Early in a run (first cadence interval, a just-restarted worker)
 * realized MIPS is still 0 and remaining/rate arithmetic can yield
 * negative, Inf, or NaN estimates. fmtDouble would serialize those
 * as "inf"/"nan" — not valid JSON — so the whole snapshot would turn
 * unparseable. Every publisher and parser funnels ETAs through here
 * so all three renderers (table, --json, --prom) agree on one
 * sentinel and show `?` uniformly.
 */
double
sanitizeEta(double eta)
{
    return std::isfinite(eta) && eta >= 0.0 ? eta : -1.0;
}

/** Inline quantile cell for table rows: `—` when nothing sampled. */
std::string
quantilesCell(const stats::Quantiles &q)
{
    if (q.samples == 0)
        return "—";
    return csprintf("p50=%.3f p90=%.3f p99=%.3f", q.p50, q.p90,
                    q.p99);
}

/** Wall-clock now with sub-second precision (file-age display only;
 *  deadlines elsewhere stay on the monotonic clock). */
double
wallNow()
{
    struct timespec ts;
    if (clock_gettime(CLOCK_REALTIME, &ts) != 0)
        return static_cast<double>(std::time(nullptr));
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * One field of a status or STATS document: its JSON key, its
 * Prometheus HELP text (nullptr: not exported) and the member that
 * holds it. The member's type is the field's kind: a count, a real,
 * a bool or a quantile block; the snapshot's identity strings and
 * in-flight key list are text and key-list fields. Every writer,
 * parser and exporter below walks these rows, so each key is spelled
 * once.
 */
template <class T>
struct Field
{
    const char *key;
    const char *help;
    std::variant<std::uint64_t T::*, double T::*, bool T::*,
                 stats::Quantiles T::*, std::string T::*,
                 std::vector<std::uint64_t> T::*>
        member;
};

template <class T>
using Fields = std::vector<Field<T>>;

// Count rows point at std::size_t members through std::uint64_t.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

/** A field's JSON value; "" leaves the field out (a quantile block
 *  with no samples). */
template <class V>
std::string
valueJson(const V &v)
{
    if constexpr (std::is_same_v<V, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<V, std::uint64_t>) {
        return std::to_string(v);
    } else if constexpr (std::is_same_v<V, double>) {
        return fmtDouble(v);
    } else if constexpr (std::is_same_v<V, stats::Quantiles>) {
        return v.samples ? stats::quantilesJson(v) : std::string();
    } else if constexpr (std::is_same_v<V, std::string>) {
        return "\"" + json::escape(v) + "\"";
    } else {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            s += csprintf("%s\"%016llx\"", i ? "," : "",
                          static_cast<unsigned long long>(v[i]));
        }
        return s + "]";
    }
}

/** Read a field's JSON value; a value of the wrong type keeps the
 *  field's current one. */
template <class V>
void
readValue(const json::Value &v, V &out)
{
    if constexpr (std::is_same_v<V, bool>) {
        out = v.asBool(out);
    } else if constexpr (std::is_same_v<V, std::uint64_t>) {
        out = v.asUint64(out);
    } else if constexpr (std::is_same_v<V, double>) {
        out = v.asDouble(out);
    } else if constexpr (std::is_same_v<V, stats::Quantiles>) {
        if (v.isObject())
            out = stats::parseQuantiles(v);
    } else if constexpr (std::is_same_v<V, std::string>) {
        out = v.asString(out);
    } else {
        for (const json::Value &key : v.elements()) {
            if (key.isString()) {
                out.push_back(
                    std::strtoull(key.asString().c_str(), nullptr, 16));
            }
        }
    }
}

/** Append obj's rows as `"key":value` members of the object open at
 *  the end of `s`; `exportedOnly` keeps the rows with a HELP text. */
template <class T>
void
appendFields(std::string &s, const T &obj, const Fields<T> &rows,
             bool exportedOnly = false)
{
    for (const Field<T> &f : rows) {
        if (exportedOnly && !f.help)
            continue;
        const std::string v = std::visit(
            [&](auto member) { return valueJson(obj.*member); },
            f.member);
        if (!v.empty()) {
            s += csprintf("%s\"%s\":%s", s.back() == '{' ? "" : ",",
                          f.key, v.c_str());
        }
    }
}

/** Read every row present in `doc`; absent ones keep their values. */
template <class T>
void
readFields(const json::Value &doc, T &obj, const Fields<T> &rows)
{
    for (const Field<T> &f : rows) {
        if (const json::Value *v = doc.find(f.key)) {
            std::visit([&](auto member) { readValue(*v, obj.*member); },
                       f.member);
        }
    }
}

/** An array of row-described objects: `,"key":[{...},...]`, left
 *  out when empty. */
template <class T>
void
appendObjects(std::string &s, const char *key,
              const std::vector<T> &items, const Fields<T> &rows)
{
    if (items.empty())
        return;
    s += csprintf(",\"%s\":[", key);
    for (std::size_t i = 0; i < items.size(); ++i) {
        s += i ? ",{" : "{";
        appendFields(s, items[i], rows);
        s += "}";
    }
    s += "]";
}

/** Read back an appendObjects() array (non-objects skipped). */
template <class T>
void
readObjects(const json::Value &doc, const char *key,
            std::vector<T> &out, const Fields<T> &rows)
{
    const json::Value *arr = doc.find(key);
    if (!arr)
        return;
    for (const json::Value &v : arr->elements()) {
        if (!v.isObject())
            continue;
        T item;
        readFields(v, item, rows);
        out.push_back(std::move(item));
    }
}

/** The snapshot's fields, in document order (the stages, shards and
 *  serve blocks follow them). Prometheus exports a row with a HELP
 *  text as powerchop_<key>. */
const Fields<StatusSnapshot> kSnapshotFields = {
    {"role", nullptr, &StatusSnapshot::role},
    {"label", nullptr, &StatusSnapshot::label},
    {"pid", nullptr, &StatusSnapshot::pid},
    {"update_seq", nullptr, &StatusSnapshot::updateSeq},
    {"uptime_seconds", nullptr, &StatusSnapshot::uptimeSeconds},
    {"jobs_total", "Jobs owned by this process",
     &StatusSnapshot::jobsTotal},
    {"jobs_done", "Jobs in a terminal state", &StatusSnapshot::jobsDone},
    {"jobs_ok", nullptr, &StatusSnapshot::jobsOk},
    {"jobs_failed", "Jobs that failed terminally",
     &StatusSnapshot::jobsFailed},
    {"jobs_retried", "Extra attempts granted",
     &StatusSnapshot::jobsRetried},
    {"in_flight", nullptr, &StatusSnapshot::inFlight},
    {"mips", "Realized simulated MIPS since process start",
     &StatusSnapshot::mips},
    {"restarts", "Worker restarts performed", &StatusSnapshot::restarts},
    {"eta_seconds", "Estimated seconds to completion (-1 = unknown)",
     &StatusSnapshot::etaSeconds},
    {"finished", "1 when the campaign/worker has finished",
     &StatusSnapshot::finished},
    {"job_latency_ms", "Per-job wall latency quantiles (ms)",
     &StatusSnapshot::jobLatencyMs},
    {"fsync_latency_ms", "Journal append fsync latency quantiles (ms)",
     &StatusSnapshot::fsyncLatencyMs},
    {"restart_backoff_ms", "Worker restart backoff quantiles (ms)",
     &StatusSnapshot::restartBackoffMs},
};

const Fields<telemetry::StageTime> kStageFields = {
    {"name", nullptr, &telemetry::StageTime::name},
    {"seconds", nullptr, &telemetry::StageTime::seconds},
    {"count", nullptr, &telemetry::StageTime::count},
};

const Fields<ShardStatus> kShardFields = {
    {"shard", nullptr, &ShardStatus::shard},
    {"total", nullptr, &ShardStatus::total},
    {"done", nullptr, &ShardStatus::done},
    {"restarts", nullptr, &ShardStatus::restarts},
    {"helpers", nullptr, &ShardStatus::helpers},
    {"active", nullptr, &ShardStatus::active},
    {"heartbeat_age_seconds", nullptr,
     &ShardStatus::heartbeatAgeSeconds},
    {"failed", nullptr, &ShardStatus::failed},
};

/** STATS carries every row, in this order; the snapshot's serve
 *  block carries the rows with a HELP text, which Prometheus exports
 *  as powerchop_serve_<key>. */
const Fields<ServeStats> kServeFields = {
    {"uptime_seconds", nullptr, &ServeStats::uptimeSeconds},
    {"requests", "Requests handled by powerchopd", &ServeStats::requests},
    {"gets", nullptr, &ServeStats::gets},
    {"sims", nullptr, &ServeStats::sims},
    {"errors", nullptr, &ServeStats::errors},
    {"simulated_jobs", nullptr, &ServeStats::simulatedJobs},
    {"hits", "Result-cache key hits", &ServeStats::hits},
    {"misses", "Result-cache key misses (simulated fresh)",
     &ServeStats::misses},
    {"hit_rate", nullptr, &ServeStats::hitRate},
    {"insertions", nullptr, &ServeStats::insertions},
    {"evictions", "LRU entries evicted for space", &ServeStats::evictions},
    {"entries", "Cache keys resident", &ServeStats::entries},
    {"bytes", "Cache payload bytes resident", &ServeStats::bytes},
    {"warm_started", nullptr, &ServeStats::warmStarted},
    {"qps", "Requests per second since daemon start", &ServeStats::qps},
    {"shed_connections", "Connections shed BUSY at the accept gate",
     &ServeStats::shedConnections},
    {"shed_requests", "SIM requests shed BUSY at admission",
     &ServeStats::shedRequests},
    {"deadline_cancels", "Requests cancelled by the wall deadline",
     &ServeStats::deadlineCancels},
    {"idle_reaped", nullptr, &ServeStats::idleReaped},
    {"read_timeouts", nullptr, &ServeStats::readTimeouts},
    {"accept_retries", nullptr, &ServeStats::acceptRetries},
    {"dropped_in_flight", nullptr, &ServeStats::droppedInFlight},
    {"compactions", "Cache journal compactions", &ServeStats::compactions},
    {"journal_records", nullptr, &ServeStats::journalRecords},
    {"journal_dead_records", nullptr, &ServeStats::journalDeadRecords},
    {"request_latency_ms", "Request wall latency quantiles (ms)",
     &ServeStats::requestLatencyMs},
};

/** Whole-file read; false on any error (reader is best-effort). */
bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace

std::string
StatusSnapshot::toJson() const
{
    std::string s = csprintf("{\"schema\":\"%s\"", kStatusSchema);
    appendFields(s, *this, kSnapshotFields);
    appendObjects(s, "stages", stages, kStageFields);
    appendObjects(s, "shards", shards, kShardFields);
    if (serve.present()) {
        s += ",\"serve\":{";
        appendFields(s, serve, kServeFields, /*exportedOnly=*/true);
        s += "}";
    }
    return s + "}";
}

bool
StatusSnapshot::fromJson(const std::string &text, StatusSnapshot &out)
{
    json::Value doc;
    if (!json::parse(text, doc) || !doc.isObject())
        return false;
    // Accept any v1-lineage schema ("powerchop-status-v1", future
    // "-v1.1"): the reader tolerates unknown fields anyway.
    if (doc.getString("schema").rfind("powerchop-status", 0) != 0)
        return false;

    out = StatusSnapshot();
    readFields(doc, out, kSnapshotFields);
    // Normalize on the way in too: a snapshot written by an older
    // publisher (or edited by hand) may carry an arbitrary negative
    // value; readers must not distinguish "-3" from "unknown".
    out.etaSeconds = sanitizeEta(out.etaSeconds);
    readObjects(doc, "stages", out.stages, kStageFields);
    readObjects(doc, "shards", out.shards, kShardFields);
    if (const json::Value *serve = doc.find("serve"))
        readFields(*serve, out.serve, kServeFields);
    return true;
}

std::string
ServeStats::toJson() const
{
    std::string s = "{\"schema\":\"powerchop-serve-stats-v1\"";
    appendFields(s, *this, kServeFields);
    return s + "}";
}

StatusPublisher::StatusPublisher(std::string path,
                                 double minIntervalSeconds)
    : path_(std::move(path)), minInterval_(minIntervalSeconds),
      startedAt_(monotonicSeconds()),
      // Far enough in the virtual past that the first publish always
      // passes the cadence gate.
      lastPublish_(monotonicSeconds() - 2 * minIntervalSeconds - 1)
{
}

bool
StatusPublisher::publish(StatusSnapshot snap, bool force)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const double now = monotonicSeconds();
        if (!force && now - lastPublish_ < minInterval_)
            return false;
        lastPublish_ = now;
        snap.updateSeq = ++seq_;
        snap.uptimeSeconds = now - startedAt_;
    }
    if (snap.pid == 0)
        snap.pid = static_cast<std::uint64_t>(::getpid());
    // The publisher is the single choke point every snapshot passes
    // through: clamp unstable early-run ETA estimates here so no
    // renderer ever sees a negative/Inf/NaN value.
    snap.etaSeconds = sanitizeEta(snap.etaSeconds);
    atomicWriteFileOk(path_, snap.toJson() + "\n");
    return true;
}

std::uint64_t
StatusPublisher::published() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::string
statusDirPath(const std::string &campaignDir)
{
    return campaignDir + "/status";
}

std::string
campaignStatusPath(const std::string &campaignDir)
{
    return statusDirPath(campaignDir) + "/campaign.json";
}

std::vector<StatusEntry>
readStatusDir(const std::string &campaignDir)
{
    std::vector<StatusEntry> entries;
    const std::string dir = statusDirPath(campaignDir);
    DIR *d = opendir(dir.c_str());
    if (!d)
        return entries;

    const double now = wallNow();
    while (const struct dirent *ent = readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() < 6 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        const std::string path = dir + "/" + name;

        StatusEntry entry;
        entry.file = name;
        if (!readWholeFile(path, entry.rawJson))
            continue;
        // Trim the trailing newline so --json can embed the document
        // inline without breaking its own line structure.
        while (!entry.rawJson.empty() &&
               (entry.rawJson.back() == '\n' ||
                entry.rawJson.back() == '\r'))
            entry.rawJson.pop_back();

        struct stat st;
        if (stat(path.c_str(), &st) == 0) {
            const double mtime =
                static_cast<double>(st.st_mtim.tv_sec) +
                static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
            entry.ageSeconds = std::max(0.0, now - mtime);
        }
        entry.parsed =
            StatusSnapshot::fromJson(entry.rawJson, entry.snap);
        entries.push_back(std::move(entry));
    }
    closedir(d);

    // Aggregate first, then shard workers in name order, so the table
    // reads top-down from whole-campaign to detail.
    std::sort(entries.begin(), entries.end(),
              [](const StatusEntry &a, const StatusEntry &b) {
                  const bool aTop = a.file == "campaign.json";
                  const bool bTop = b.file == "campaign.json";
                  if (aTop != bTop)
                      return aTop;
                  return a.file < b.file;
              });
    return entries;
}

std::string
renderStatusTable(const std::vector<StatusEntry> &entries)
{
    std::string out = csprintf(
        "%-14s %-12s %6s %11s %5s %6s %4s %8s %4s %7s %s\n", "ENTRY",
        "ROLE", "AGE", "DONE/TOTAL", "FAIL", "RETRY", "FLY", "MIPS",
        "RST", "ETA", "STATE");
    for (const StatusEntry &e : entries) {
        std::string name = e.file;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            name.resize(name.size() - 5);
        if (!e.parsed) {
            out += csprintf("%-14s %-12s %6s %s\n", name.c_str(),
                            "?", "-", "<unparseable>");
            continue;
        }
        const StatusSnapshot &s = e.snap;
        const std::string age =
            e.ageSeconds < 0 ? "-" : csprintf("%.1fs", e.ageSeconds);
        const std::string eta =
            s.finished ? "-"
            : s.etaSeconds < 0
                ? "?"
                : csprintf("%.1fs", s.etaSeconds);
        out += csprintf(
            "%-14s %-12s %6s %5zu/%-5zu %5zu %6zu %4zu %8.2f "
            "%4zu %7s %s\n",
            name.c_str(), s.role.c_str(), age.c_str(), s.jobsDone,
            s.jobsTotal, s.jobsFailed, s.jobsRetried,
            s.inFlight.size(), s.mips, s.restarts, eta.c_str(),
            s.finished ? "finished" : "running");
        if (s.jobLatencyMs.samples > 0) {
            out += csprintf(
                "%-14s   job latency ms p50=%.3f p90=%.3f p99=%.3f "
                "(%llu samples)\n",
                "", s.jobLatencyMs.p50, s.jobLatencyMs.p90,
                s.jobLatencyMs.p99,
                static_cast<unsigned long long>(
                    s.jobLatencyMs.samples));
        }
        if (s.serve.present()) {
            out += csprintf(
                "%-14s   serve: %llu req (%llu hit / %llu miss), "
                "%llu evict, %llu keys, %.1f KiB, qps %.1f, "
                "lat ms %s\n",
                "",
                static_cast<unsigned long long>(s.serve.requests),
                static_cast<unsigned long long>(s.serve.hits),
                static_cast<unsigned long long>(s.serve.misses),
                static_cast<unsigned long long>(s.serve.evictions),
                static_cast<unsigned long long>(s.serve.entries),
                static_cast<double>(s.serve.bytes) / 1024.0,
                s.serve.qps,
                quantilesCell(s.serve.requestLatencyMs).c_str());
            if (s.serve.shedConnections || s.serve.shedRequests ||
                s.serve.deadlineCancels || s.serve.compactions) {
                out += csprintf(
                    "%-14s   hardening: %llu conn + %llu req shed, "
                    "%llu deadline-cancelled, %llu compactions\n",
                    "",
                    static_cast<unsigned long long>(
                        s.serve.shedConnections),
                    static_cast<unsigned long long>(
                        s.serve.shedRequests),
                    static_cast<unsigned long long>(
                        s.serve.deadlineCancels),
                    static_cast<unsigned long long>(
                        s.serve.compactions));
            }
        }
        for (const ShardStatus &sh : s.shards) {
            out += csprintf(
                "%-14s   shard %04zu %zu/%zu done, %zu restart(s), "
                "%zu helper(s), %s%s\n",
                "", sh.shard, sh.done, sh.total, sh.restarts,
                sh.helpers,
                sh.failed ? "FAILED"
                          : (sh.active ? "active" : "idle"),
                sh.active && sh.heartbeatAgeSeconds >= 0
                    ? csprintf(", hb %.1fs ago",
                               sh.heartbeatAgeSeconds)
                          .c_str()
                    : "");
        }
    }
    if (entries.empty())
        out += "(no status files; campaign not started or "
               "observability disabled)\n";
    return out;
}

std::string
renderStatusJson(const std::string &campaignDir,
                 const std::vector<StatusEntry> &entries)
{
    std::string out = csprintf(
        "{\"schema\":\"%s\",\"dir\":\"%s\",\"entries\":[", kStatusSchema,
        json::escape(campaignDir).c_str());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const StatusEntry &e = entries[i];
        out += csprintf("%s\n  {\"file\":\"%s\",\"age_seconds\":%s,"
                        "\"parsed\":%s,\"status\":",
                        i ? "," : "", json::escape(e.file).c_str(),
                        fmtDouble(e.ageSeconds).c_str(),
                        e.parsed ? "true" : "false");
        // The snapshot document is embedded verbatim: what the
        // publisher wrote is what the consumer sees.
        out += e.parsed ? e.rawJson : std::string("null");
        out += "}";
    }
    out += entries.empty() ? "]}\n" : "\n]}\n";
    return out;
}

namespace
{

/** Prometheus text-format writer emitting HELP/TYPE once per metric. */
class PromWriter
{
  public:
    void
    gauge(const std::string &metric, const char *help,
          const std::string &labels, double value)
    {
        if (std::find(declared_.begin(), declared_.end(), metric) ==
            declared_.end()) {
            declared_.push_back(metric);
            out_ += csprintf("# HELP %s %s\n# TYPE %s gauge\n",
                             metric.c_str(), help, metric.c_str());
        }
        out_ += csprintf("%s{%s} %s\n", metric.c_str(),
                         labels.c_str(), fmtDouble(value).c_str());
    }

    const std::string &text() const { return out_; }

  private:
    std::string out_;
    std::vector<std::string> declared_;
};

/** Export obj's rows that carry a HELP text as `<prefix><key>`: a
 *  count, real or bool as one gauge, a quantile block as three
 *  quantile-labelled gauges plus `_samples` (none when empty). */
template <class T>
void
promFields(PromWriter &w, const std::string &prefix,
           const std::string &labels, const T &obj,
           const Fields<T> &rows)
{
    for (const Field<T> &f : rows) {
        if (!f.help)
            continue;
        const std::string metric = prefix + f.key;
        std::visit(
            [&](auto member) {
                const auto &v = obj.*member;
                using V = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<V, stats::Quantiles>) {
                    if (v.samples == 0)
                        return;
                    w.gauge(metric, f.help, labels + ",quantile=\"0.5\"",
                            v.p50);
                    w.gauge(metric, f.help, labels + ",quantile=\"0.9\"",
                            v.p90);
                    w.gauge(metric, f.help,
                            labels + ",quantile=\"0.99\"", v.p99);
                    w.gauge(metric + "_samples",
                            "Samples behind the quantiles", labels,
                            static_cast<double>(v.samples));
                } else if constexpr (std::is_arithmetic_v<V>) {
                    w.gauge(metric, f.help, labels,
                            static_cast<double>(v));
                }
            },
            f.member);
    }
}

} // namespace

std::string
renderStatusPrometheus(const std::vector<StatusEntry> &entries)
{
    PromWriter w;
    for (const StatusEntry &e : entries) {
        if (!e.parsed)
            continue;
        const StatusSnapshot &s = e.snap;
        std::string name = e.file;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            name.resize(name.size() - 5);
        const std::string labels = csprintf(
            "entry=\"%s\",role=\"%s\"", json::escape(name).c_str(),
            json::escape(s.role).c_str());

        w.gauge("powerchop_status_age_seconds",
                "Seconds since the snapshot file was written", labels,
                e.ageSeconds);
        w.gauge("powerchop_jobs_in_flight", "Jobs executing now",
                labels, static_cast<double>(s.inFlight.size()));
        promFields(w, "powerchop_", labels, s, kSnapshotFields);
        if (s.serve.present()) {
            promFields(w, "powerchop_serve_", labels, s.serve,
                       kServeFields);
        }
    }
    return w.text();
}

} // namespace powerchop
