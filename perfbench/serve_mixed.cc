// Workload serve-mixed: cqad in-process on loopback (CqadServer +
// CqaClient), driven closed-loop from one client thread over one
// connection, pipelined with a fixed window of requests in flight so
// that both executors stay busy, switching codec per request. The stream
// is cache hits on cheap queries over one instance, a steady share of
// misses made by rotating a query constant beyond the synopsis cache's
// capacity, and a trickle of requests against more small .tbl
// directories than the database cache holds, so that each is a database
// load running beside the other requests in the window.
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "cqa/apx_cqa.h"
#include "gen/noise.h"
#include "gen/tpch.h"
#include "oracles.h"
#include "query/parser.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "storage/tbl_io.h"

namespace perfbench {

namespace {

using cqa::serve::CqaClient;
using cqa::serve::Request;
using cqa::serve::Response;
using cqa::serve::WireCodec;

constexpr double kMainScaleFactor = 0.002;
constexpr double kSmallScaleFactor = 0.0002;
constexpr int kSetupRepetitions = 5;
constexpr size_t kSmallDirs = 5;       // More than db cache slots left.
constexpr size_t kDbCacheEntries = 4;  // Main + 3 small directories.
constexpr size_t kCacheEntries = 16;   // Fewer than the miss rotation.
// One loop + two executors + the client thread = 4 threads.
constexpr size_t kServerLoops = 1;
constexpr size_t kExecutors = 2;
// Requests in flight: the executors' queue holds some 20 ms of work,
// so a late wake-up of the client or loop thread does not idle them.
constexpr size_t kWindow = 32;
constexpr size_t kRequestsPerRound = 250;
constexpr size_t kMissEvery = 10;   // 25 misses per round.
constexpr size_t kLoadEvery = 25;   // 10 loads per round.
// The served data is fixed; --seed drives the request seeds. With
// seed-dependent data the noisy nation blocks changed the cost of the
// cheap hit queries (Natural's draws grow as 1/R) from seed to seed.
constexpr uint64_t kDataSeed = 7;

const char* const kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
    "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
    "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
constexpr size_t kNumNations = sizeof(kNations) / sizeof(kNations[0]);

// A distinct (data, query, scheme, seed) request.
struct Key {
  std::string data;
  std::string query;
  std::string scheme;
  uint64_t seed = 0;
};

struct Answers {
  std::vector<std::string> tuples;
  std::vector<double> frequencies;
  bool operator==(const Answers&) const = default;
};

Answers FromResponse(const Response& r) {
  Answers a;
  for (const cqa::serve::ResponseAnswer& ans : r.answers) {
    a.tuples.push_back(ans.tuple);
    a.frequencies.push_back(ans.frequency);
  }
  return a;
}

Request MakeRequest(const Key& key, const std::string& id) {
  Request r;
  r.op = "query";
  r.id = id;
  r.schema = "tpch";
  r.data = key.data;
  r.query = key.query;
  r.scheme = key.scheme;
  r.seed = key.seed;
  r.epsilon = 0.1;
  r.delta = 0.25;
  r.threads = 1;
  return r;
}

// Cumulative server counters read through the stats op.
struct Counters {
  double hits = 0, misses = 0, loads = 0;
};

bool ReadCounters(CqaClient* client, Counters* out, std::string* error) {
  Request stats;
  stats.op = "stats";
  Response response;
  if (!client->Call(stats, &response, error)) return false;
  cqa::serve::JsonValue root;
  if (!response.ok() ||
      !cqa::serve::JsonValue::Parse(response.metrics_json, &root, error)) {
    return false;
  }
  const cqa::serve::JsonValue* counters = root.Find("counters");
  if (counters == nullptr) return false;
  out->hits = counters->GetNumber("serve.cache_hits", 0);
  out->misses = counters->GetNumber("serve.cache_misses", 0);
  out->loads = counters->GetNumber("serve.db_loads", 0);
  return true;
}

// Data written for one set-up: the main instance and the small ones.
struct ServeData {
  std::string main_dir;
  std::vector<std::string> small_dirs;
  double tbl_write_s = 0.0;
};

ServeData WriteData(const Options& options, Tracer& tracer, Outcome* out) {
  ServeData data;
  const std::string root =
      std::filesystem::absolute(options.work_dir + "/serve").string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  auto write = [&](const cqa::Database& db, const std::string& dir) {
    std::filesystem::create_directories(dir, ec);
    ScopedSpan span(tracer, "storage.tbl_write");
    const double t = NowSeconds();
    std::string error;
    if (!cqa::WriteTblDirectory(db, dir, &error)) {
      out->Fail("serve: cannot write " + dir + ": " + error);
    }
    data.tbl_write_s += NowSeconds() - t;
  };
  {
    cqa::Dataset main;
    {
      ScopedSpan span(tracer, "gen.tpch");
      cqa::TpchOptions tpch;
      tpch.scale_factor = kMainScaleFactor;
      tpch.seed = kDataSeed;
      main = cqa::GenerateTpch(tpch);
    }
    {
      ScopedSpan span(tracer, "gen.noise");
      const cqa::ConjunctiveQuery q = cqa::MustParseCq(
          *main.schema,
          "Q(N) :- customer(CK, CN, CA, NK, CP, CB, CM, CC),"
          " nation(NK, N, RK, NCO).");
      cqa::NoiseOptions noise;
      noise.p = 0.5;
      cqa::Rng rng(kDataSeed + 1);
      cqa::AddQueryAwareNoise(main.db.get(), q, noise, rng);
    }
    data.main_dir = root + "/main";
    write(*main.db, data.main_dir);
  }
  for (size_t k = 0; k < kSmallDirs; ++k) {
    cqa::Dataset small;
    {
      ScopedSpan span(tracer, "gen.tpch");
      cqa::TpchOptions tpch;
      tpch.scale_factor = kSmallScaleFactor;
      tpch.seed = kDataSeed + 100 + k;
      small = cqa::GenerateTpch(tpch);
    }
    data.small_dirs.push_back(root + "/small" + std::to_string(k));
    write(*small.db, data.small_dirs.back());
  }
  return data;
}

cqa::serve::ServerOptions MakeServerOptions() {
  cqa::serve::ServerOptions so;
  so.workers = kServerLoops;
  so.max_inflight = kExecutors;
  so.engine.cache_entries = kCacheEntries;
  so.engine.db_cache_entries = kDbCacheEntries;
  so.engine.default_deadline_s = 0.0;  // No deadline.
  so.drain_timeout_s = 5.0;
  return so;
}

// One running server with its client connection.
struct Stack {
  std::unique_ptr<cqa::serve::CqadServer> server;
  CqaClient h;
  ~Stack() {
    h.Close();
    if (server) {
      server->RequestDrain();
      server->Wait();
    }
  }
};

bool StartStack(Stack* stack, std::string* error) {
  stack->server = std::make_unique<cqa::serve::CqadServer>(MakeServerOptions());
  if (!stack->server->Start(error)) return false;
  return stack->h.Connect("127.0.0.1", stack->server->port(), error);
}

}  // namespace

Outcome RunServeMixed(const Options& options) {
  Outcome out;
  Tracer tracer(options.trace, "serve-mixed");
  RunSelfTest(tracer, &out);

  // Set-up, repeated: generate and write the data, start cqad, connect.
  ServeData data;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    {
      ScopedSpan span(tracer, "serve.stop");
      stack.reset();
    }
    const double t = NowSeconds();
    data = WriteData(options, tracer, &out);
    stack = std::make_unique<Stack>();
    std::string error;
    {
      ScopedSpan span(tracer, "serve.start");
      if (!StartStack(stack.get(), &error)) {
        out.Fail("serve: cannot start cqad: " + error);
        return out;
      }
    }
    setup_times.push_back(NowSeconds() - t);
  }

  // The request keys: 4 hit keys, the miss rotation and the load keys.
  // Seeds stay below 2^53: the JSON codec carries the seed as a double.
  std::vector<Key> keys;
  auto seed_of = [&](uint64_t i) {
    return cqa::SplitMix64(options.seed * 1000 + i) >> 11;
  };
  const std::vector<std::pair<const char*, const char*>> hit_queries = {
      {"Q(S) :- supplier(SK, S, SA, NK, SP, SB, SC),"
       " nation(NK, N, RK, NCO).",
       "KL"},
      {"Q() :- customer(CK, CN, CA, NK, CP, CB, CM, CC),"
       " nation(NK, 'GERMANY', RK, NCO).",
       "Natural"},
      {"Q(N) :- nation(NK, N, RK, NCO), region(RK, 'EUROPE', RC).", "KLM"},
      {"Q(R) :- nation(NK, N, RK, NCO), region(RK, R, RC).", "Cover"},
  };
  for (size_t i = 0; i < hit_queries.size(); ++i) {
    keys.push_back({data.main_dir, hit_queries[i].first,
                    hit_queries[i].second, seed_of(10 + i)});
  }
  const size_t first_miss = keys.size();
  for (size_t i = 0; i < kNumNations; ++i) {
    // The nations of <nation>'s region: five answers for every nation,
    // so every miss does the same amount of work.
    keys.push_back({data.main_dir,
                    std::string("Q(N) :- nation(NK, N, RK, NCO), "
                                "nation(NK2, '") +
                        kNations[i] + "', RK, NC2).",
                    "KL", seed_of(100 + i)});
  }
  const size_t first_load = keys.size();
  for (size_t k = 0; k < kSmallDirs; ++k) {
    keys.push_back({data.small_dirs[k],
                    "Q(N) :- nation(NK, N, RK, NCO), region(RK, 'ASIA', RC).",
                    "Cover", seed_of(200 + k)});
  }

  // Warm-up: load the main instance and cache the hit keys.
  CqaClient& h = stack->h;
  std::map<size_t, Answers> seen;  // First answers per key.
  auto record = [&](size_t key, const Response& r) {
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
      out.Fail("serve: request failed: " + r.error);
      return;
    }
    const Answers a = FromResponse(r);
    auto [it, inserted] = seen.emplace(key, a);
    if (!inserted && !(it->second == a)) {
      out.Fail("serve: answers of one key differ between responses");
    }
  };
  std::string error;
  for (size_t i = 0; i < first_miss; ++i) {
    Response r;
    if (!h.Call(MakeRequest(keys[i], ""), &r, &error) || !r.ok()) {
      out.Fail("serve: warm-up request failed: " + error + r.error);
      return out;
    }
  }
  Counters before;
  if (!ReadCounters(&h, &before, &error)) {
    out.Fail("serve: stats op failed: " + error);
    return out;
  }

  std::vector<double> latencies_ms, round_times;
  std::vector<double> queue_us, cache_us, pre_us, hit_pre_us, sample_us,
      encode_us;
  std::map<WireCodec, std::vector<double>> encode_client_us, decode_client_us;
  size_t rounds = 0, requests = 0, next_miss = 0, next_load = 0;
  uint64_t request_id = 0;
  // A request in flight.
  struct InFlight {
    std::string id;
    size_t key = 0;
    bool load = false;  // A load; the rest of the stream is hits and misses.
    bool miss = false;  // Loads miss too.
    WireCodec codec = WireCodec::kJson;
    Request request;
    double sent = 0.0;
  };
  std::deque<InFlight> in_flight;
  bool transport_ok = true;
  // Awaits the oldest request in flight and checks its response.
  auto collect_oldest = [&]() {
    const InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    Response r;
    bool received;
    {
      ScopedSpan span(tracer,
                      f.load   ? "serve.await_load"
                      : f.miss ? "serve.await_miss"
                               : "serve.await_hit",
                      static_cast<int64_t>(f.key));
      received = h.Await(f.id, &r, &error);
    }
    // Latency from sending to collecting, the window's wait included.
    if (!f.load) latencies_ms.push_back(1e3 * (NowSeconds() - f.sent));
    if (!received) {
      out.Fail("serve: transport failure: " + error);
      ++out.attempted;
      ++out.failed;
      transport_ok = false;
      return;
    }
    record(f.key, r);
    if (r.timing.recorded && !f.load) {
      queue_us.push_back(static_cast<double>(r.timing.queue_wait_micros));
      cache_us.push_back(static_cast<double>(r.timing.cache_micros));
      pre_us.push_back(static_cast<double>(r.timing.preprocess_micros));
      sample_us.push_back(static_cast<double>(r.timing.sample_micros));
      encode_us.push_back(static_cast<double>(r.timing.encode_micros));
      if (r.cache_hit) {
        hit_pre_us.push_back(static_cast<double>(r.timing.preprocess_micros));
      }
    }
    if (r.cache_hit == f.miss) {
      out.Fail("serve: a request hit or missed the synopsis cache "
               "against the mix's design");
    }
    if (tracer.enabled()) {
      // Split-only: the client codec on this request and response.
      ScopedSpan span(tracer, "serve.client_codec", -1, true);
      double t0 = NowSeconds();
      const std::string payload = f.request.ToPayload(f.codec);
      encode_client_us[f.codec].push_back(1e6 * (NowSeconds() - t0));
      const std::string reply = r.ToPayload(f.codec);
      Response decoded;
      std::string decode_error;
      t0 = NowSeconds();
      const bool ok = Response::FromPayload(reply, &decoded, &decode_error);
      decode_client_us[f.codec].push_back(1e6 * (NowSeconds() - t0));
      if (!ok || !(FromResponse(decoded) == FromResponse(r))) {
        out.Fail("serve: a response does not survive its codec");
      }
    }
  };
  // Sends one request into the window, first collecting the oldest when
  // the window is full.
  auto send = [&](InFlight f) {
    if (in_flight.size() == kWindow) collect_oldest();
    if (!transport_ok) return;
    f.id = std::to_string(request_id++);
    f.request = MakeRequest(keys[f.key], f.id);
    h.set_codec(f.codec);
    f.sent = NowSeconds();
    ScopedSpan span(tracer, f.load ? "serve.send_load" : "serve.send");
    if (!h.Send(f.request, &error)) {
      out.Fail("serve: transport failure: " + error);
      ++out.attempted;
      ++out.failed;
      transport_ok = false;
      return;
    }
    in_flight.push_back(std::move(f));
  };
  const double measure_start = NowSeconds();
  do {
    const double round_start = NowSeconds();
    for (size_t j = 0; j < kRequestsPerRound && transport_ok; ++j) {
      if (j % kLoadEvery == 0) {
        InFlight load;
        load.load = load.miss = true;
        load.key = first_load + next_load++ % kSmallDirs;
        send(std::move(load));
      }
      InFlight f;
      f.miss = j % kMissEvery == kMissEvery - 1;
      f.key = f.miss ? first_miss + next_miss++ % kNumNations
                     : (j / 2) % hit_queries.size();
      f.codec = j % 2 == 0 ? WireCodec::kJson : WireCodec::kBinary;
      ++requests;
      send(std::move(f));
    }
    // Whole rounds: every request of the round is collected in it.
    while (!in_flight.empty() && transport_ok) collect_oldest();
    round_times.push_back(NowSeconds() - round_start);
    ++rounds;
  } while (NowSeconds() - measure_start < options.seconds && out.correct);
  const double measured = NowSeconds() - measure_start;

  Counters after;
  if (!ReadCounters(&h, &after, &error)) {
    out.Fail("serve: stats op failed: " + error);
  }
  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  const double loads = after.loads - before.loads;
  const size_t loads_sent = rounds * (kRequestsPerRound / kLoadEvery);
  const size_t misses_sent = rounds * (kRequestsPerRound / kMissEvery);
  if (loads != static_cast<double>(loads_sent) ||
      misses != static_cast<double>(misses_sent + loads_sent) ||
      hits != static_cast<double>(requests - misses_sent)) {
    out.Fail("serve: cache and load counters differ from the request mix");
  }
  {
    ScopedSpan span(tracer, "serve.stop");
    stack.reset();
  }

  // Reference: every key's answers from ApxCqa in this process, on the
  // data read back from the same .tbl directory.
  double tbl_read_s = 0.0;
  {
    ScopedSpan span(tracer, "check.reference");
    std::map<std::string, std::unique_ptr<cqa::Database>> loaded;
    const cqa::Schema schema = cqa::MakeTpchSchema();
    for (const auto& [key_index, answers] : seen) {
      const Key& key = keys[key_index];
      std::unique_ptr<cqa::Database>& db = loaded[key.data];
      if (!db) {
        db = std::make_unique<cqa::Database>(&schema);
        ScopedSpan read_span(tracer, "storage.tbl_read");
        const double t = NowSeconds();
        if (!cqa::ReadTblDirectory(db.get(), key.data, &error)) {
          out.Fail("serve: cannot read " + key.data + ": " + error);
          continue;
        }
        tbl_read_s += NowSeconds() - t;
      }
      const cqa::ConjunctiveQuery q = cqa::MustParseCq(schema, key.query);
      cqa::ApxParams params;
      cqa::Rng rng(key.seed);
      const cqa::CqaRunResult run = cqa::ApxCqa(
          *db, q, *cqa::ParseSchemeKind(key.scheme), params, rng);
      Answers expected;
      for (const cqa::CqaAnswer& a : run.answers) {
        expected.tuples.push_back(cqa::TupleToString(a.tuple));
        expected.frequencies.push_back(a.frequency);
      }
      if (!(expected == answers)) {
        out.Fail("serve: served answers differ from ApxCqa for " +
                 key.query);
      }
    }
  }

  const double qps = static_cast<double>(out.attempted) / measured;
  const double p50 = Quantile(latencies_ms, 0.5);
  const double p99 = Quantile(latencies_ms, 0.99);
  PrintRoundTimes(round_times);
  out.end_to_end = {
      {"setup_s", Median(setup_times), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"round_s", Median(round_times), "s"},
  };
  out.workload_metrics = {
      {"serve_qps", qps, "1/s"},
      {"serve_p50_ms", p50, "ms"},
      {"serve_p99_ms", p99, "ms"},
      {"rounds", static_cast<double>(rounds), "count"},
      {"latency_samples", static_cast<double>(latencies_ms.size()), "count"},
      {"hit_preprocess_us_p50", Median(hit_pre_us), "us"},
  };
  out.per_layer = {
      {"storage.tbl_write_s", data.tbl_write_s, "s"},
      {"storage.tbl_read_s", tbl_read_s, "s"},
      {"serve_qps", qps, "1/s"},
      {"serve_p50_ms", p50, "ms"},
      {"serve_p99_ms", p99, "ms"},
      {"serve.client_encode_us.json", Median(encode_client_us[WireCodec::kJson]), "us"},
      {"serve.client_encode_us.binary", Median(encode_client_us[WireCodec::kBinary]), "us"},
      {"serve.client_decode_us.json", Median(decode_client_us[WireCodec::kJson]), "us"},
      {"serve.client_decode_us.binary", Median(decode_client_us[WireCodec::kBinary]), "us"},
      {"serve.queue_wait_us", Median(queue_us), "us"},
      {"serve.cache_us", Median(cache_us), "us"},
      {"serve.preprocess_us", Median(pre_us), "us"},
      {"serve.sample_us", Median(sample_us), "us"},
      {"serve.encode_us", Median(encode_us), "us"},
      {"serve.hit_preprocess_us", Median(hit_pre_us), "us"},
      {"serve.cache_hits", hits, "count"},
      {"serve.cache_misses", misses, "count"},
      {"serve.db_loads", loads, "count"},
  };
  FinishTrace(tracer, options, &out);
  return out;
}

}  // namespace perfbench
