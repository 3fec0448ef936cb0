/**
 * @file
 * Tests for the serving plane: the content-keyed result cache (LRU
 * eviction by bytes, journal warm start), the wire protocol
 * (request-line parsing, response framing over a real pipe), and
 * powerchopd end to end over a Unix-domain socket — including the
 * byte-identity guarantee against a direct runCampaign() report and
 * a SIGKILL-shaped warm restart from the cache journal.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "sim/campaign.hh"
#include "sim/machine_config.hh"
#include "sim/sim_runner.hh"
#include "workload/suites.hh"

using namespace powerchop;

namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "powerchop_serve_" +
        std::to_string(::getpid()) + "_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

TEST(ResultCache, PutGetAndCounters)
{
    ResultCache cache;
    std::string payload;
    EXPECT_FALSE(cache.get(1, &payload));
    cache.put(1, "one");
    cache.put(2, "two");
    ASSERT_TRUE(cache.get(1, &payload));
    EXPECT_EQ(payload, "one");
    EXPECT_TRUE(cache.get(1)) << "null payload pointer is allowed";

    const ResultCacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.insertions, 2u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.entries, 2u);
    EXPECT_GT(st.bytes, 0u);
    EXPECT_EQ(cache.warmStarted(), 0u);
}

TEST(ResultCache, RePutRefreshesWithoutDuplicating)
{
    ResultCache cache;
    cache.put(7, "payload");
    cache.put(7, "payload");
    const ResultCacheStats st = cache.stats();
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.insertions, 1u) << "re-put is a recency refresh";
}

TEST(ResultCache, EvictsLeastRecentlyUsedByBytes)
{
    // One shard, budget for ~3 entries (cost = payload + 64
    // bookkeeping bytes each).
    ResultCacheOptions opts;
    opts.shards = 1;
    opts.maxBytes = 3 * (100 + 64);
    ResultCache cache(opts);
    const std::string payload(100, 'p');
    cache.put(1, payload);
    cache.put(2, payload);
    cache.put(3, payload);
    EXPECT_EQ(cache.stats().entries, 3u);

    // Touch 1 so 2 becomes the LRU victim of the next insert.
    EXPECT_TRUE(cache.get(1));
    cache.put(4, payload);
    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.get(2)) << "LRU entry must be the one evicted";
    EXPECT_TRUE(cache.get(1));
    EXPECT_TRUE(cache.get(3));
    EXPECT_TRUE(cache.get(4));
}

TEST(ResultCache, OversizedPayloadStillAdmitted)
{
    // A payload larger than the whole budget must be admitted (as
    // the sole resident entry), not bounce forever.
    ResultCacheOptions opts;
    opts.shards = 1;
    opts.maxBytes = 64;
    ResultCache cache(opts);
    cache.put(1, std::string(4096, 'x'));
    EXPECT_TRUE(cache.get(1));
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, JournalWarmStartSurvivesRestart)
{
    const std::string dir = freshDir("cache-journal");
    ResultCacheOptions opts;
    opts.journalPath = dir + "/cache.jsonl";
    {
        ResultCache cache(opts);
        cache.put(0xa1, "alpha");
        cache.put(0xb2, "beta");
        cache.put(0xa1, "alpha"); // refresh: no duplicate record
    }
    // "SIGKILL": no graceful shutdown path exists at all — the
    // journal was written through on every put.
    ResultCache warm(opts);
    EXPECT_EQ(warm.warmStarted(), 2u);
    std::string payload;
    ASSERT_TRUE(warm.get(0xa1, &payload));
    EXPECT_EQ(payload, "alpha");
    ASSERT_TRUE(warm.get(0xb2, &payload));
    EXPECT_EQ(payload, "beta");

    const ResultCacheStats st = warm.stats();
    EXPECT_EQ(st.insertions, 0u)
        << "warm-start admissions are replays, not traffic";
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.entries, 2u);
}

TEST(ResultCache, EvictionNeverErasesTheJournal)
{
    // Durability invariant: the journal is an append-only superset.
    // Evict everything from a tiny cache, then warm-start a roomy
    // one: every payload ever inserted must come back.
    const std::string dir = freshDir("cache-superset");
    ResultCacheOptions tiny;
    tiny.shards = 1;
    tiny.maxBytes = 2 * (50 + 64);
    tiny.journalPath = dir + "/cache.jsonl";
    {
        ResultCache cache(tiny);
        for (std::uint64_t k = 1; k <= 6; ++k)
            cache.put(k, std::string(50, 'a' + char(k)));
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_LT(cache.stats().entries, 6u);
    }
    ResultCacheOptions roomy = tiny;
    roomy.maxBytes = 1u << 20;
    ResultCache warm(roomy);
    EXPECT_EQ(warm.warmStarted(), 6u);
    for (std::uint64_t k = 1; k <= 6; ++k)
        EXPECT_TRUE(warm.get(k)) << k;
}

TEST(ResultCache, FailuresAreJournaledButNeverCached)
{
    // A failed or timed-out outcome is history: durable in the
    // journal, but never a hit, before or after a warm start.
    const std::string dir = freshDir("cache-failures");
    ResultCacheOptions opts;
    opts.journalPath = dir + "/cache.jsonl";
    {
        ResultCache cache(opts);
        cache.put(0xa1, "alpha");
        cache.putFailure(0xb2, "timed-out",
                         "{\"error\":\"slow\",\"attempts\":1}");
        EXPECT_FALSE(cache.get(0xb2));
        const ResultCacheStats st = cache.stats();
        EXPECT_EQ(st.entries, 1u);
        EXPECT_EQ(st.journalRecords, 2u);
        EXPECT_EQ(st.journalDeadRecords, 1u);
    }
    const JournalReplay replay = loadJournal(opts.journalPath);
    ASSERT_EQ(replay.records.size(), 2u);
    EXPECT_EQ(replay.records[1].key, 0xb2u);
    EXPECT_EQ(replay.records[1].status, "timed-out");

    ResultCache warm(opts);
    EXPECT_EQ(warm.warmStarted(), 1u);
    EXPECT_TRUE(warm.get(0xa1));
    EXPECT_FALSE(warm.get(0xb2));
    EXPECT_EQ(warm.stats().journalDeadRecords, 1u);
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(Protocol, ParsesTheThreeVerbs)
{
    Request r = parseRequestLine("GET 00deadbeefcafe12");
    EXPECT_EQ(r.verb, RequestVerb::Get);
    EXPECT_EQ(r.key, 0x00deadbeefcafe12ull);

    r = parseRequestLine("GET f");
    EXPECT_EQ(r.verb, RequestVerb::Get) << "short keys are legal";
    EXPECT_EQ(r.key, 0xfull);

    r = parseRequestLine("SIM {\"workloads\":[\"x\"]}");
    EXPECT_EQ(r.verb, RequestVerb::Sim);
    EXPECT_EQ(r.spec, "{\"workloads\":[\"x\"]}");

    r = parseRequestLine("STATS");
    EXPECT_EQ(r.verb, RequestVerb::Stats);
}

TEST(Protocol, MalformedLinesParseToBadWithAReason)
{
    for (const char *line :
         {"", "GET", "GET ", "GET xyz", "GET 123g",
          "GET 00112233445566778", // 17 hex digits
          "get 12", "PUT 12", "STATS now", "SIMX {}", "SIM "}) {
        const Request r = parseRequestLine(line);
        EXPECT_EQ(r.verb, RequestVerb::Bad) << "line: " << line;
        EXPECT_FALSE(r.error.empty()) << "line: " << line;
    }
}

TEST(Protocol, FormatSimSpecMatchesTheGrammar)
{
    const std::string spec = formatSimSpec(
        {"perlbench", "namd"}, {"server"}, {"full-power"}, 200'000,
        0);
    json::Value v;
    ASSERT_TRUE(json::parse(spec, v)) << spec;
    EXPECT_EQ(v.find("workloads")->elements().size(), 2u);
    EXPECT_EQ(v.getUint64("insns"), 200'000u);
    EXPECT_EQ(spec.find('\n'), std::string::npos)
        << "specs must be single-line (the framing is line-based)";
}

TEST(Protocol, ResponseFramingRoundTripsOverAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Payload with embedded newlines and a NUL: the length prefix
    // must carry it verbatim.
    std::string payload = "line1\nline2\n";
    payload += '\0';
    payload += "tail";
    ASSERT_TRUE(writeResponse(fds[1], ResponseStatus::Ok, payload));
    ASSERT_TRUE(
        writeResponse(fds[1], ResponseStatus::Miss, ""));
    ::close(fds[1]);

    FdReader reader(fds[0]);
    ResponseStatus status;
    std::string got;
    ASSERT_TRUE(readResponse(reader, status, got));
    EXPECT_EQ(status, ResponseStatus::Ok);
    EXPECT_EQ(got, payload);
    ASSERT_TRUE(readResponse(reader, status, got));
    EXPECT_EQ(status, ResponseStatus::Miss);
    EXPECT_TRUE(got.empty());
    EXPECT_FALSE(readResponse(reader, status, got)) << "EOF";
    ::close(fds[0]);
}

TEST(Protocol, ReadResponseRejectsOversizedAndMalformedFrames)
{
    const auto feed = [](const std::string &bytes,
                         std::size_t maxPayload) {
        int fds[2];
        EXPECT_EQ(::pipe(fds), 0);
        EXPECT_TRUE(writeAllFd(fds[1], bytes));
        ::close(fds[1]);
        FdReader reader(fds[0]);
        ResponseStatus status;
        std::string payload;
        const bool ok =
            readResponse(reader, status, payload, maxPayload);
        ::close(fds[0]);
        return ok;
    };
    EXPECT_FALSE(feed("BOGUS 3\nabc", 1024));
    EXPECT_FALSE(feed("OK notanumber\n", 1024));
    EXPECT_FALSE(feed("OK 3\nab", 1024)) << "truncated payload";
    EXPECT_FALSE(feed("OK 4096\n", 16)) << "over maxPayload";
    EXPECT_TRUE(feed("HIT 2\nhi", 1024));
}

// ---------------------------------------------------------------------
// SimServer end to end (Unix-domain socket)
// ---------------------------------------------------------------------

/** A live daemon on a background thread, stopped on destruction. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServeOptions opts)
        : opts_(std::move(opts))
    {
        opts_.stopFlag = &stop_;
        server_ = std::make_unique<SimServer>(opts_);
        thread_ = std::thread([this] { report_ = server_->run(); });
    }

    ~ServerFixture() { stopAndJoin(); }

    const ServeStats &
    stopAndJoin()
    {
        if (thread_.joinable()) {
            stop_.store(true);
            thread_.join();
        }
        return report_;
    }

    ServeClient
    client() const
    {
        ServeClient c;
        std::string err;
        // The accept loop may still be a poll-tick away from the
        // first listen backlog drain; connect() itself succeeds as
        // soon as the (already bound) socket exists.
        EXPECT_TRUE(c.connectUnix(opts_.socketPath, &err)) << err;
        return c;
    }

  private:
    ServeOptions opts_;
    std::atomic<bool> stop_{false};
    std::unique_ptr<SimServer> server_;
    std::thread thread_;
    ServeStats report_;
};

ServeOptions
unixOptions(const std::string &dir)
{
    ServeOptions opts;
    opts.socketPath = dir + "/powerchopd.sock";
    opts.cache.journalPath = dir + "/cache.jsonl";
    opts.runnerThreads = 2;
    return opts;
}

/** The tiny matrix every end-to-end test serves. */
const std::vector<std::string> kWorkloads = {"perlbench"};
const std::vector<std::string> kMachines = {"server"};
const std::vector<std::string> kModes = {"full-power", "powerchop"};
constexpr std::uint64_t kInsns = 30'000;

std::string
tinySpec()
{
    return formatSimSpec(kWorkloads, kMachines, kModes, kInsns, 0);
}

std::vector<SimJob>
tinyJobs()
{
    std::vector<SimJob> jobs;
    for (const std::string &mode : kModes) {
        SimJob job;
        job.workload = findWorkload(kWorkloads[0]);
        job.machine = serverConfig();
        EXPECT_TRUE(mode == "full-power" || mode == "powerchop");
        job.opts.mode = mode == "full-power" ? SimMode::FullPower
                                             : SimMode::PowerChop;
        job.opts.maxInstructions = kInsns;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SimServer, SimMissThenHitServesIdenticalBytes)
{
    const std::string dir = freshDir("sim");
    ServerFixture server(unixOptions(dir));
    ServeClient c = server.client();

    const ServeReply cold = c.sim(tinySpec());
    ASSERT_FALSE(cold.ioFailed);
    ASSERT_EQ(cold.status, ResponseStatus::Ok)
        << "cold matrix simulates fresh: " << cold.payload;
    json::Value v;
    // reportJson is a JSON document; it must parse and report all ok.
    ASSERT_TRUE(json::parse(cold.payload, v)) << cold.payload;
    EXPECT_EQ(v.find("campaign")->getUint64("jobs"), 2u);
    EXPECT_EQ(v.find("campaign")->getUint64("ok"), 2u);

    const ServeReply warmReply = c.sim(tinySpec());
    ASSERT_FALSE(warmReply.ioFailed);
    EXPECT_EQ(warmReply.status, ResponseStatus::Hit)
        << "fully cached matrix must not resimulate";
    EXPECT_EQ(warmReply.payload, cold.payload)
        << "hits must serve byte-identical reports";

    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.sims, 2u);
    EXPECT_EQ(rep.simulatedJobs, 2u) << "second SIM was all hits";
    EXPECT_EQ(rep.hits, 2u);
    EXPECT_EQ(rep.misses, 2u);
}

TEST(SimServer, ServedReportIsByteIdenticalToDirectCampaign)
{
    // The tentpole acceptance criterion, in-process: SIM payload ==
    // the report.json a direct runCampaign of the same matrix writes.
    const std::string dir = freshDir("identity");
    std::filesystem::create_directories(dir + "/daemon");
    std::string served;
    {
        ServerFixture server(unixOptions(dir + "/daemon"));
        ServeClient c = server.client();
        const ServeReply reply = c.sim(tinySpec());
        ASSERT_FALSE(reply.ioFailed);
        ASSERT_EQ(reply.status, ResponseStatus::Ok) << reply.payload;
        served = reply.payload;
    }

    SimJobRunner runner(2);
    const CampaignResult direct =
        runCampaign(runner, tinyJobs(), dir + "/direct", {});
    ASSERT_TRUE(direct.complete());
    EXPECT_EQ(served, readFile(dir + "/direct/report.json"));
}

TEST(SimServer, CacheJournalResumesAsACampaign)
{
    // One store, one format: a daemon's cache.jsonl is a campaign
    // journal. A campaign resumed from it runs nothing and writes
    // the report a direct campaign writes.
    const std::string dir = freshDir("cache-as-journal");
    std::filesystem::create_directories(dir + "/daemon");
    {
        ServerFixture server(unixOptions(dir + "/daemon"));
        ServeClient c = server.client();
        const ServeReply reply = c.sim(tinySpec());
        ASSERT_EQ(reply.status, ResponseStatus::Ok) << reply.payload;
    }
    std::filesystem::create_directories(dir + "/resumed");
    std::filesystem::copy_file(dir + "/daemon/cache.jsonl",
                               dir + "/resumed/journal.jsonl");

    SimJobRunner runner(2);
    CampaignOptions resume;
    resume.resume = true;
    const CampaignResult resumed =
        runCampaign(runner, tinyJobs(), dir + "/resumed", resume);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.replayed, 2u);
    const CampaignResult direct =
        runCampaign(runner, tinyJobs(), dir + "/direct", {});
    ASSERT_TRUE(direct.complete());
    EXPECT_EQ(readFile(dir + "/resumed/report.json"),
              readFile(dir + "/direct/report.json"));
}

TEST(SimServer, TimedOutJobIsJournaledAndResimulatedAfterRestart)
{
    // A served job that times out leaves a timed-out record in
    // cache.jsonl. Like a campaign resume, a warm restart treats it
    // as history: the job is simulated afresh, never served from it.
    const std::string dir = freshDir("timed-out");
    constexpr std::uint64_t insns = 10'000'000;
    const std::string spec =
        formatSimSpec(kWorkloads, kMachines, {"full-power"}, insns, 0);
    SimJob job;
    job.workload = findWorkload(kWorkloads[0]);
    job.machine = serverConfig();
    job.opts.mode = SimMode::FullPower;
    job.opts.maxInstructions = insns;
    const std::uint64_t key = campaignJobKey(job);
    {
        ServeOptions opts = unixOptions(dir);
        opts.jobTimeoutSeconds = 0.001;
        ServerFixture server(opts);
        ServeClient c = server.client();
        const ServeReply reply = c.sim(spec);
        ASSERT_EQ(reply.status, ResponseStatus::Ok) << reply.payload;
        EXPECT_NE(reply.payload.find("\"timed-out\""), std::string::npos)
            << reply.payload;
        EXPECT_EQ(c.get(key).status, ResponseStatus::Miss);
    }
    const JournalReplay replay = loadJournal(dir + "/cache.jsonl");
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].key, key);
    EXPECT_EQ(replay.records[0].status, "timed-out");

    ServerFixture server(unixOptions(dir));
    ServeClient c = server.client();
    EXPECT_EQ(c.get(key).status, ResponseStatus::Miss);
    const ServeReply reply = c.sim(spec);
    ASSERT_EQ(reply.status, ResponseStatus::Ok) << reply.payload;
    EXPECT_NE(reply.payload.find("\"status\":\"ok\""), std::string::npos)
        << reply.payload;
    EXPECT_EQ(c.get(key).status, ResponseStatus::Hit);
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.warmStarted, 0u);
    EXPECT_EQ(rep.simulatedJobs, 1u);
}

TEST(SimServer, GetServesCachedSingleResults)
{
    const std::string dir = freshDir("get");
    ServerFixture server(unixOptions(dir));
    ServeClient c = server.client();

    const std::vector<SimJob> jobs = tinyJobs();
    const std::uint64_t key = campaignJobKey(jobs[0]);
    EXPECT_EQ(c.get(key).status, ResponseStatus::Miss)
        << "nothing cached yet";

    ASSERT_TRUE(c.sim(tinySpec()).served());
    const ServeReply hit = c.get(key);
    ASSERT_EQ(hit.status, ResponseStatus::Hit);
    json::Value v;
    ASSERT_TRUE(json::parse(hit.payload, v)) << hit.payload;
    EXPECT_EQ(v.getString("workload"), "perlbench");
    EXPECT_EQ(v.getString("mode"), "full-power");
    EXPECT_EQ(c.get(~key).status, ResponseStatus::Miss);
}

TEST(SimServer, StatsReportLiveCounters)
{
    const std::string dir = freshDir("stats");
    ServerFixture server(unixOptions(dir));
    ServeClient c = server.client();

    ASSERT_TRUE(c.sim(tinySpec()).served());
    c.get(campaignJobKey(tinyJobs()[0]));
    const ServeReply stats = c.stats();
    ASSERT_EQ(stats.status, ResponseStatus::Ok);
    json::Value v;
    ASSERT_TRUE(json::parse(stats.payload, v)) << stats.payload;
    EXPECT_EQ(v.getString("schema"), "powerchop-serve-stats-v1");
    EXPECT_EQ(v.getUint64("sims"), 1u);
    EXPECT_EQ(v.getUint64("gets"), 1u);
    EXPECT_EQ(v.getUint64("simulated_jobs"), 2u);
    EXPECT_EQ(v.getUint64("hits"), 1u);
    EXPECT_EQ(v.getUint64("entries"), 2u);
    EXPECT_GT(v.getUint64("bytes"), 0u);
    EXPECT_GT(v.find("request_latency_ms")->getUint64("samples"),
              0u);

    // Scripts and perfbench read STATS: every key, in this order.
    std::vector<std::string> keys;
    for (const auto &member : v.members())
        keys.push_back(member.first);
    const std::vector<std::string> want = {
        "schema", "uptime_seconds", "requests", "gets", "sims",
        "errors", "simulated_jobs", "hits", "misses", "hit_rate",
        "insertions", "evictions", "entries", "bytes", "warm_started",
        "qps", "shed_connections", "shed_requests", "deadline_cancels",
        "idle_reaped", "read_timeouts", "accept_retries",
        "dropped_in_flight", "compactions", "journal_records",
        "journal_dead_records", "request_latency_ms"};
    EXPECT_EQ(keys, want);
}

TEST(SimServer, BadRequestsAnswerErrAndKeepServing)
{
    const std::string dir = freshDir("err");
    ServerFixture server(unixOptions(dir));
    ServeClient c = server.client();

    // Unknown workload, unknown mode, non-JSON, bad verb: each is an
    // ERR with a reason — and the connection survives all of them.
    ServeReply r = c.sim(
        "{\"workloads\":[\"no-such-workload\"],\"machines\":"
        "[\"server\"],\"modes\":[\"full-power\"]}");
    EXPECT_EQ(r.status, ResponseStatus::Err);
    EXPECT_NE(r.payload.find("no-such-workload"), std::string::npos);

    r = c.sim("{\"workloads\":[\"perlbench\"],\"machines\":"
              "[\"server\"],\"modes\":[\"warp-speed\"]}");
    EXPECT_EQ(r.status, ResponseStatus::Err);

    r = c.sim("not json at all");
    EXPECT_EQ(r.status, ResponseStatus::Err);

    r = c.sim(tinySpec().substr(0, 20));
    EXPECT_EQ(r.status, ResponseStatus::Err) << "truncated spec";

    // A duplicate matrix entry is refused before simulating.
    r = c.sim(formatSimSpec({"perlbench", "perlbench"}, {"server"},
                            {"full-power"}, kInsns, 0));
    EXPECT_EQ(r.status, ResponseStatus::Err);
    EXPECT_NE(r.payload.find("duplicate"), std::string::npos);

    // A malformed number names its field instead of being coerced
    // into some other job (a fallback, a wrap or a truncation).
    const std::string head = "{\"workloads\":[\"perlbench\"],"
                             "\"machines\":[\"server\"],"
                             "\"modes\":[\"full-power\"],";
    for (const char *bad : {"\"insns\":-5", "\"insns\":\"abc\"",
                            "\"insns\":1.5", "\"insns\":0",
                            "\"insns\":1e999"}) {
        r = c.sim(head + bad + "}");
        EXPECT_EQ(r.status, ResponseStatus::Err) << bad;
        EXPECT_NE(r.payload.find("\"insns\""), std::string::npos)
            << bad;
    }
    for (const char *bad : {"\"insns\":1000,\"timeout\":\"abc\"",
                            "\"insns\":1000,\"timeout\":-1",
                            "\"insns\":1000,\"timeout\":1e999"}) {
        r = c.sim(head + bad + "}");
        EXPECT_EQ(r.status, ResponseStatus::Err) << bad;
        EXPECT_NE(r.payload.find("\"timeout\""), std::string::npos)
            << bad;
    }

    EXPECT_TRUE(c.stats().served()) << "connection still alive";
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.errors, 13u);
    EXPECT_EQ(rep.simulatedJobs, 0u)
        << "no bad request may reach the runner";
}

TEST(SimServer, WarmRestartServesHitsFromTheJournal)
{
    const std::string dir = freshDir("warm");
    std::string cold;
    {
        // First daemon lifetime: populate, then die without any
        // graceful cache flush (there is none to call).
        ServerFixture server(unixOptions(dir));
        ServeClient c = server.client();
        const ServeReply reply = c.sim(tinySpec());
        ASSERT_TRUE(reply.served());
        cold = reply.payload;
    }
    {
        // Second lifetime over the same dir: the journal must warm-
        // start the cache, and the same SIM must be a pure HIT with
        // byte-identical payload and zero fresh simulation.
        ServerFixture server(unixOptions(dir));
        ServeClient c = server.client();
        const ServeReply warm = c.sim(tinySpec());
        ASSERT_FALSE(warm.ioFailed);
        EXPECT_EQ(warm.status, ResponseStatus::Hit);
        EXPECT_EQ(warm.payload, cold);
        const ServeStats &rep = server.stopAndJoin();
        EXPECT_EQ(rep.warmStarted, 2u);
        EXPECT_EQ(rep.simulatedJobs, 0u);
    }
}

TEST(SimServer, ConcurrentClientsShareTheCache)
{
    const std::string dir = freshDir("concurrent");
    ServerFixture server(unixOptions(dir));

    // One client populates; N clients then hammer GETs and SIMs
    // concurrently. Every reply must be served and byte-identical.
    std::string expect;
    {
        ServeClient c = server.client();
        const ServeReply reply = c.sim(tinySpec());
        ASSERT_TRUE(reply.served());
        expect = reply.payload;
    }
    std::atomic<unsigned> mismatches{0}, failures{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            ServeClient c;
            if (!c.connectUnix(dir + "/powerchopd.sock")) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < 20; ++i) {
                const ServeReply reply = c.sim(tinySpec());
                if (!reply.served())
                    failures.fetch_add(1);
                else if (reply.payload != expect)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.simulatedJobs, 2u) << "only the initial misses";
}

// ---------------------------------------------------------------------
// Hardening: framing, backoff, compaction, deadlines, shedding, drain
// ---------------------------------------------------------------------

TEST(Protocol, BusyFramingRoundTrips)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string reason = "connection cap (4) reached\n";
    ASSERT_TRUE(
        writeResponse(fds[1], ResponseStatus::Busy, reason));
    ::close(fds[1]);
    FdReader reader(fds[0]);
    ResponseStatus status;
    std::string payload;
    ASSERT_TRUE(readResponse(reader, status, payload));
    EXPECT_EQ(status, ResponseStatus::Busy);
    EXPECT_EQ(payload, reason);
    ::close(fds[0]);
}

TEST(Protocol, ClientRetryBackoffIsDeterministicAndBounded)
{
    ClientRetryPolicy policy;
    policy.backoffBaseSeconds = 0.05;
    policy.backoffMaxSeconds = 0.4;
    policy.backoffJitterFraction = 0.25;
    policy.seed = 42;

    // Attempt 1 is the first try: no wait before it.
    EXPECT_EQ(clientRetryBackoffSeconds(policy, 1), 0.0);
    // A pure function of (policy, attempt): same inputs, same wait.
    for (unsigned a = 2; a <= 8; ++a) {
        const double d = clientRetryBackoffSeconds(policy, a);
        EXPECT_EQ(d, clientRetryBackoffSeconds(policy, a)) << a;
        EXPECT_GE(d, 0.05) << a;
        EXPECT_LE(d, 0.4 * 1.25) << "cap + jitter ceiling, " << a;
    }
    // Doubling below the cap: attempt 3 waits longer than attempt 2.
    EXPECT_GT(clientRetryBackoffSeconds(policy, 3),
              clientRetryBackoffSeconds(policy, 2));
    // Different seeds decorrelate the jitter.
    ClientRetryPolicy other = policy;
    other.seed = 43;
    EXPECT_NE(clientRetryBackoffSeconds(policy, 4),
              clientRetryBackoffSeconds(other, 4));
    // Disabled backoff waits nowhere.
    ClientRetryPolicy off = policy;
    off.backoffBaseSeconds = 0;
    EXPECT_EQ(clientRetryBackoffSeconds(off, 5), 0.0);
}

TEST(ResultCache, CompactionShrinksJournalAndWarmStartsIdentical)
{
    const std::string dir = freshDir("cache-compact");
    ResultCacheOptions opts;
    opts.shards = 1;
    opts.maxBytes = 3 * (50 + 64); // three residents
    opts.journalPath = dir + "/cache.jsonl";
    opts.compactDeadRatio = 0.4;
    opts.compactMinRecords = 6;

    ResultCache cache(opts);
    const auto payloadFor = [](std::uint64_t k) {
        return std::string(50, static_cast<char>('a' + k));
    };
    for (std::uint64_t k = 1; k <= 10; ++k)
        cache.put(k, payloadFor(k));

    // Ten appends against three residents crosses the dead ratio
    // repeatedly; without compaction the file would hold 10 records.
    const ResultCacheStats st = cache.stats();
    EXPECT_GE(st.compactions, 1u);
    EXPECT_LT(st.journalRecords, 10u);
    EXPECT_LT(st.journalDeadRecords, st.journalRecords);
    EXPECT_EQ(st.entries, 3u);

    // The physical file agrees with the accounting.
    const std::string journal = readFile(opts.journalPath);
    std::uint64_t lines = 0;
    for (char c : journal)
        lines += c == '\n';
    EXPECT_EQ(lines, st.journalRecords);

    // Compaction invariant: the compacted journal warm-starts to the
    // identical cache — same residents, same payload bytes — as the
    // uncompacted one would have (the most recent inserts win).
    ResultCache warmTiny(opts);
    for (std::uint64_t k = 1; k <= 10; ++k) {
        std::string fromOld, fromNew;
        const bool liveOld = cache.get(k, &fromOld);
        const bool liveNew = warmTiny.get(k, &fromNew);
        EXPECT_EQ(liveOld, liveNew) << k;
        if (liveOld) {
            EXPECT_EQ(fromOld, fromNew) << k;
        }
    }
    EXPECT_TRUE(warmTiny.get(10));
    EXPECT_FALSE(warmTiny.get(1)) << "dead records stay dead";

    // A roomy warm start admits every record still on disk.
    ResultCacheOptions roomy = opts;
    roomy.maxBytes = 1u << 20;
    ResultCache warmRoomy(roomy);
    EXPECT_EQ(warmRoomy.warmStarted(), st.journalRecords);
}

/** Raw connect, bypassing ServeClient: hostile-client tests want the
 *  socket without the protocol niceties. @return fd or -1. */
int
rawConnectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(SimServer, IdleConnectionIsReaped)
{
    const std::string dir = freshDir("idle-reap");
    ServeOptions opts = unixOptions(dir);
    opts.idleTimeoutSeconds = 0.15;
    ServerFixture server(opts);

    // Connect and send nothing: the idle deadline must EOF us.
    const int fd = rawConnectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    FdReader reader(fd);
    reader.setPollTimeoutMs(5000);
    std::string line;
    EXPECT_FALSE(reader.readLine(line));
    EXPECT_EQ(reader.outcome(), ReadOutcome::Eof)
        << "idle connections are closed quietly, not answered";
    ::close(fd);

    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.idleReaped, 1u);
    EXPECT_EQ(rep.requests, 0u);
}

TEST(SimServer, HalfFrameHitsReadDeadlineAndServingContinues)
{
    const std::string dir = freshDir("half-frame");
    ServeOptions opts = unixOptions(dir);
    opts.idleTimeoutSeconds = 10;  // generous: not what fires here
    opts.readTimeoutSeconds = 0.15;
    ServerFixture server(opts);

    // Send half a request line, then hang: the mid-frame deadline
    // answers ERR deadline and hangs up.
    const int fd = rawConnectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeAllFd(fd, "SIM {\"wor"));
    FdReader reader(fd);
    reader.setPollTimeoutMs(5000);
    ResponseStatus status;
    std::string payload;
    ASSERT_TRUE(readResponse(reader, status, payload));
    EXPECT_EQ(status, ResponseStatus::Err);
    EXPECT_NE(payload.find("deadline"), std::string::npos)
        << payload;
    std::string rest;
    EXPECT_FALSE(reader.readLine(rest)) << "then the daemon hangs up";
    ::close(fd);

    // The daemon itself is unharmed.
    ServeClient c = server.client();
    EXPECT_TRUE(c.stats().served());
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.readTimeouts, 1u);
    EXPECT_EQ(rep.idleReaped, 0u);
}

TEST(SimServer, OverCapConnectionsAreShedWithBusy)
{
    const std::string dir = freshDir("conn-cap");
    ServeOptions opts = unixOptions(dir);
    opts.maxConnections = 2;
    ServerFixture server(opts);

    // Two well-behaved connections occupy the cap (the STATS round
    // trips guarantee both are accepted, not just queued).
    ServeClient c1 = server.client();
    ServeClient c2 = server.client();
    ASSERT_TRUE(c1.stats().served());
    ASSERT_TRUE(c2.stats().served());

    // The third is shed with BUSY at the accept gate, unprompted.
    const int fd = rawConnectUnix(opts.socketPath);
    ASSERT_GE(fd, 0);
    FdReader reader(fd);
    reader.setPollTimeoutMs(5000);
    ResponseStatus status;
    std::string payload;
    ASSERT_TRUE(readResponse(reader, status, payload));
    EXPECT_EQ(status, ResponseStatus::Busy);
    EXPECT_NE(payload.find("connection cap"), std::string::npos);
    std::string rest;
    EXPECT_FALSE(reader.readLine(rest)) << "shed means closed";
    ::close(fd);

    // The earlier connections are unaffected, and STATS admits what
    // happened.
    const ServeReply stats = c1.stats();
    ASSERT_TRUE(stats.served());
    json::Value v;
    ASSERT_TRUE(json::parse(stats.payload, v)) << stats.payload;
    EXPECT_EQ(v.getUint64("shed_connections"), 1u);
    EXPECT_TRUE(c2.stats().served());
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.shedConnections, 1u);
}

TEST(SimServer, SimAdmissionQueueShedsWithBusy)
{
    const std::string dir = freshDir("admission");
    ServeOptions opts = unixOptions(dir);
    opts.simQueueDepth = 1;
    ServerFixture server(opts);

    // Four distinct SIM misses fired simultaneously against a depth-1
    // admission queue: at least one runs, at least one is shed, and
    // nothing hangs or crashes. (Exact counts depend on arrival
    // interleaving; the invariant is ok + busy == all, busy >= 1.)
    constexpr unsigned kClients = 4;
    std::vector<ServeClient> clients(kClients);
    for (unsigned t = 0; t < kClients; ++t) {
        ASSERT_TRUE(
            clients[t].connectUnix(dir + "/powerchopd.sock"));
    }
    std::atomic<unsigned> ok{0}, busy{0}, other{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            const ServeReply reply = clients[t].sim(formatSimSpec(
                kWorkloads, kMachines, {"full-power"},
                5'000'000 + t, 0));
            if (reply.status == ResponseStatus::Ok)
                ok.fetch_add(1);
            else if (reply.status == ResponseStatus::Busy)
                busy.fetch_add(1);
            else
                other.fetch_add(1);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load() + busy.load(), kClients);
    EXPECT_EQ(other.load(), 0u);
    EXPECT_GE(ok.load(), 1u);
    EXPECT_GE(busy.load(), 1u);
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_EQ(rep.shedRequests, busy.load());
}

TEST(SimServer, RequestDeadlineCancelsAnInFlightSim)
{
    const std::string dir = freshDir("req-deadline");
    ServeOptions opts = unixOptions(dir);
    opts.requestDeadlineSeconds = 0.08;
    ServerFixture server(opts);
    ServeClient c = server.client();

    // A sim far larger than the deadline allows: the wall deadline
    // must cancel it cooperatively and answer ERR deadline.
    const ServeReply reply = c.sim(formatSimSpec(
        kWorkloads, kMachines, {"full-power"}, 500'000'000, 0));
    ASSERT_FALSE(reply.ioFailed) << reply.error;
    EXPECT_EQ(reply.status, ResponseStatus::Err);
    EXPECT_NE(reply.payload.find("deadline"), std::string::npos)
        << reply.payload;

    // The connection survives its cancelled request.
    EXPECT_TRUE(c.stats().served());
    const ServeStats &rep = server.stopAndJoin();
    EXPECT_GE(rep.deadlineCancels, 1u);
}

TEST(SimServer, GracefulDrainFinishesInFlightRequests)
{
    const std::string dir = freshDir("drain");
    ServeOptions opts = unixOptions(dir);
    opts.drainSeconds = 10;
    ServerFixture server(opts);

    // Launch a fresh sim, then raise the stop flag while it is (very
    // likely still) in flight: drain must let it finish and deliver.
    // Connect before the clock starts so the dial cannot race the
    // listen socket closing.
    ServeClient c = server.client();
    ServeReply reply;
    std::thread inflight([&] { reply = c.sim(tinySpec()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const ServeStats &rep = server.stopAndJoin();
    inflight.join();
    ASSERT_FALSE(reply.ioFailed) << reply.error;
    EXPECT_EQ(reply.status, ResponseStatus::Ok) << reply.payload;
    EXPECT_EQ(rep.droppedInFlight, 0u)
        << "drain must not abandon an in-flight request";
}

TEST(SimServer, ClientRetriesAcrossAServerRestart)
{
    const std::string dir = freshDir("client-retry");
    ClientRetryPolicy policy;
    policy.retries = 4;
    policy.backoffBaseSeconds = 0.05;
    policy.backoffMaxSeconds = 0.2;
    policy.seed = 7;

    ServeClient c;
    c.setRetryPolicy(policy);
    std::string cold;
    {
        ServerFixture server(unixOptions(dir));
        ASSERT_TRUE(c.connectUnix(dir + "/powerchopd.sock"));
        const ServeReply reply = c.sim(tinySpec());
        ASSERT_TRUE(reply.served()) << reply.error;
        EXPECT_EQ(reply.attempts, 1u);
        cold = reply.payload;
    }
    // The daemon restarted behind the client's back (same dir, so the
    // journal warm-starts the cache). The stale connection fails the
    // first attempt; the retry redials and is served a byte-identical
    // HIT.
    ServerFixture server(unixOptions(dir));
    const ServeReply warm = c.sim(tinySpec());
    ASSERT_TRUE(warm.served()) << warm.error;
    EXPECT_EQ(warm.status, ResponseStatus::Hit);
    EXPECT_EQ(warm.payload, cold);
    EXPECT_GE(warm.attempts, 2u)
        << "the dead socket must cost at least one attempt";
}

TEST(SimServer, TcpLoopbackServesTheSameProtocol)
{
    const std::string dir = freshDir("tcp");
    ServeOptions opts;
    opts.cache.journalPath = dir + "/cache.jsonl";
    opts.runnerThreads = 1;
    // port 0 selects the Unix transport, so an ephemeral bind isn't
    // expressible; probe a few unlikely high ports instead.
    std::unique_ptr<ServerFixture> server;
    for (unsigned short port : {38471, 45929, 52363}) {
        opts.port = port;
        try {
            server = std::make_unique<ServerFixture>(opts);
            break;
        } catch (const IoError &) {
            // Port taken; try the next candidate.
        }
    }
    if (!server)
        GTEST_SKIP() << "no loopback port available";

    ServeClient c;
    std::string err;
    ASSERT_TRUE(c.connectTcp(opts.port, &err)) << err;
    EXPECT_TRUE(c.stats().served());
}

} // namespace
