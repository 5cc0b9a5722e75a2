// Security testbed benchmark: attack campaigns vs. the honest baseline.
//
// A Best-Path deployment on a ring+random topology runs the same churn
// script three ways:
//
//   ndlog     no authentication, no provenance — the paper's NDLog
//             baseline; what the network costs with no defenses at all
//   secure    authenticated (says tags + signed anti-replay headers),
//             condensed principal-grain provenance, online records — the
//             verification pipeline armed, nobody attacking. The delta vs.
//             ndlog is the price of the defenses.
//   attacked  secure + a Byzantine campaign: stolen-key forgery,
//             bad-signature forgery, replay, equivocation, and unauthorized
//             retraction composed with the same link churn, with periodic
//             audit sweeps (equivocation audit, policy-violation scan,
//             provenance traceback) and compromise response. The delta vs.
//             secure is the price of being attacked *and* cleaning up.
//
// Reported: maintenance latency, bandwidth, sign/verify counts, per-class
// injection/detection tallies, detection latency, and the acceptance
// verdict (every attack rejected or detected; zero forged tuples left in
// any honest fixpoint). Writes BENCH_adversary.json (CI uploads it per PR).
//
// Usage:
//   bench_adversary [--quick] [--loss RATE] [--out PATH]
//
//   --quick      20 nodes, 1 injection per class (CI smoke)
//   --loss RATE  uniform link-loss fault plan on all three variants (ISSUE
//                10 loss-robustness check): the ack/retransmit transport
//                masks the loss, every detection must still land, and no
//                retransmission may be booked as a kReplay security event
//                (the JSON records kreplay_false_positives; >0 fails)
//   --out PATH   JSON output path (default BENCH_adversary.json)
//
// Environment knobs:
//   PROVNET_ADV_N        nodes (default 50)
//   PROVNET_ADV_CLASSES  injections per attack class (default 2)
//   PROVNET_ADV_SEED     topology/script seed (default 20080407)
//   PROVNET_ADV_RSA      1 = RSA says tags (default), 0 = HMAC
//   PROVNET_ADV_LOSS     same as --loss

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/campaign.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "dynamics/churn.h"
#include "net/topology.h"
#include "obs/export.h"

using namespace provnet;

namespace {

struct Config {
  size_t n = 50;
  size_t per_class = 2;
  uint64_t seed = 20080407;
  bool rsa = true;
  double loss = 0.0;  // uniform link-loss rate; 0 = no fault plan
  std::string out_path = "BENCH_adversary.json";
};

// With --loss, every variant runs the same seeded uniform-loss plan (the
// plan arms the reliable transport implicitly), so the ndlog/secure/attacked
// comparison stays apples-to-apples under faults.
void ApplyFaults(EngineOptions& opts, const Config& cfg) {
  if (cfg.loss > 0) {
    opts.fault_plan = FaultPlan::UniformLoss(cfg.loss, cfg.seed ^ 0xfa017ull);
  }
}

struct VariantStats {
  std::string name;
  double wall_seconds = 0.0;  // maintenance phase (initial fixpoint excluded)
  double mbytes = 0.0;
  uint64_t messages = 0;
  uint64_t signs = 0;
  uint64_t verifies = 0;
};

EngineOptions NdlogOptions(const Config& cfg) {
  EngineOptions opts;
  opts.seed = cfg.seed;
  ApplyFaults(opts, cfg);
  return opts;
}

EngineOptions SecureOptions(const Config& cfg) {
  EngineOptions opts;
  opts.seed = cfg.seed;
  opts.authenticate = true;
  opts.says_level = cfg.rsa ? SaysLevel::kRsa : SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  opts.record_online = true;
  ApplyFaults(opts, cfg);
  return opts;
}

Result<std::unique_ptr<Engine>> FreshFixpoint(const Topology& topo,
                                              EngineOptions opts) {
  PROVNET_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> engine,
      Engine::Create(topo, BestPathNdlogProgram(), opts));
  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  PROVNET_RETURN_IF_ERROR(engine->Run().status());
  return engine;
}

// Churn-only maintenance run (the honest baselines).
Result<VariantStats> RunHonest(const std::string& name, const Topology& topo,
                               const ChurnScript& churn, EngineOptions opts) {
  PROVNET_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                           FreshFixpoint(topo, opts));
  Network::Meters m0 = engine->network().MeterSnapshot();
  uint64_t signs0 = engine->authenticator().sign_count();
  uint64_t verifies0 = engine->authenticator().verify_count();
  auto t0 = std::chrono::steady_clock::now();

  ChurnDriver driver(*engine, /*link_arity=*/3);
  PROVNET_RETURN_IF_ERROR(driver.Replay(churn).status());

  auto t1 = std::chrono::steady_clock::now();
  Network::Meters m1 = engine->network().MeterSnapshot();
  VariantStats out;
  out.name = name;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.mbytes = static_cast<double>(m1.bytes - m0.bytes) / 1e6;
  out.messages = m1.messages - m0.messages;
  out.signs = engine->authenticator().sign_count() - signs0;
  out.verifies = engine->authenticator().verify_count() - verifies0;
  return out;
}

struct AttackedResult {
  VariantStats stats;
  CampaignReport report;
  std::map<std::string, size_t> injected_per_class;
  std::map<std::string, size_t> detected_per_class;
  // Loss-robustness bookkeeping (ISSUE 10): every kReplay SecurityEvent in
  // the engine's whole lifetime must be attributable to an injected replay
  // attack. Retransmitted honest frames dedup silently; if one were booked
  // as a replay, kreplay_events would exceed the injected replay count.
  uint64_t kreplay_events = 0;
  uint64_t kreplay_false_positives = 0;
};

Result<AttackedResult> RunAttacked(const Config& cfg, const Topology& topo,
                                   const ChurnScript& churn,
                                   const std::vector<NodeId>& attackers) {
  PROVNET_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                           FreshFixpoint(topo, SecureOptions(cfg)));
  Adversary adversary(*engine, cfg.seed ^ 0xad7e55a9);
  for (NodeId a : attackers) adversary.Compromise(a);

  Rng attack_rng(cfg.seed ^ 0x5eed);
  AttackScript script = AttackScript::RandomAttacks(
      topo, attackers, cfg.per_class, /*start=*/1.13, /*spacing=*/0.37,
      attack_rng);
  script.AddChurn(churn);
  double horizon = 2.0;
  for (const CampaignEvent& e : script.events) {
    horizon = std::max(horizon, e.at + 1.0);
  }
  script.AddAuditSweeps(1.5, 0.5, horizon);
  script.SortByTime();

  Network::Meters m0 = engine->network().MeterSnapshot();
  uint64_t signs0 = engine->authenticator().sign_count();
  uint64_t verifies0 = engine->authenticator().verify_count();
  auto t0 = std::chrono::steady_clock::now();

  AttackCampaignDriver driver(*engine, adversary);
  PROVNET_ASSIGN_OR_RETURN(CampaignReport report, driver.Replay(script));

  auto t1 = std::chrono::steady_clock::now();
  Network::Meters m1 = engine->network().MeterSnapshot();

  AttackedResult out;
  out.stats.name = "attacked";
  out.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats.mbytes = static_cast<double>(m1.bytes - m0.bytes) / 1e6;
  out.stats.messages = m1.messages - m0.messages;
  out.stats.signs = engine->authenticator().sign_count() - signs0;
  out.stats.verifies = engine->authenticator().verify_count() - verifies0;
  for (const AttackOutcome& o : report.outcomes) {
    const char* kind = AttackKindName(o.injection.kind);
    ++out.injected_per_class[kind];
    if (o.detected) ++out.detected_per_class[kind];
  }
  out.kreplay_events = engine->security_log().CountOf(SecurityEventKind::kReplay);
  uint64_t replay_injected = 0;
  auto it = out.injected_per_class.find(AttackKindName(AttackKind::kReplay));
  if (it != out.injected_per_class.end()) replay_injected = it->second;
  out.kreplay_false_positives = out.kreplay_events > replay_injected
                                    ? out.kreplay_events - replay_injected
                                    : 0;
  out.report = std::move(report);
  return out;
}

void WriteJson(const Config& cfg, const std::vector<VariantStats>& variants,
               const AttackedResult& attacked) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "adversary")
      .Field("workload", "bestpath-ndlog + attack campaign")
      .Field("n", uint64_t{cfg.n})
      .Field("per_class", uint64_t{cfg.per_class})
      .Field("says", cfg.rsa ? "rsa" : "hmac")
      .Field("seed", cfg.seed)
      .Field("loss", cfg.loss, "%.3f");
  w.Key("variants").BeginArray();
  for (const VariantStats& v : variants) {
    w.BeginObject()
        .Field("name", v.name)
        .Field("wall_seconds", v.wall_seconds, "%.6f")
        .Field("mbytes", v.mbytes, "%.3f")
        .Field("messages", v.messages)
        .Field("signs", v.signs)
        .Field("verifies", v.verifies)
        .EndObject();
  }
  w.EndArray();

  const CampaignReport& r = attacked.report;
  w.Key("campaign").BeginObject();
  w.Field("injected", uint64_t{r.injected})
      .Field("detected", uint64_t{r.detected})
      .Field("rejected_at_verify", uint64_t{r.rejected_at_verify})
      .Field("localized_correct", uint64_t{r.localized_correct})
      .Field("forged_in_fixpoint", uint64_t{r.forged_in_fixpoint})
      .Field("mean_detection_latency_s", r.mean_detection_latency_s, "%.4f")
      .Field("max_detection_latency_s", r.max_detection_latency_s, "%.4f")
      .Field("kreplay_events", attacked.kreplay_events)
      .Field("kreplay_false_positives", attacked.kreplay_false_positives);
  w.Key("per_class").BeginObject();
  for (const auto& [kind, injected] : attacked.injected_per_class) {
    size_t detected = 0;
    auto it = attacked.detected_per_class.find(kind);
    if (it != attacked.detected_per_class.end()) detected = it->second;
    w.Key(kind).BeginObject();
    w.Field("injected", uint64_t{injected})
        .Field("detected", uint64_t{detected})
        .EndObject();
  }
  w.EndObject();  // per_class
  w.EndObject();  // campaign

  double ndlog_mb = variants[0].mbytes, secure_mb = variants[1].mbytes;
  double attacked_mb = variants[2].mbytes;
  w.Key("overhead").BeginObject();
  w.Field("verification_bytes_ratio",
          ndlog_mb > 0 ? secure_mb / ndlog_mb : 0.0, "%.3f")
      .Field("attack_bytes_ratio",
             secure_mb > 0 ? attacked_mb / secure_mb : 0.0, "%.3f")
      .Field("verification_wall_ratio",
             variants[0].wall_seconds > 0
                 ? variants[1].wall_seconds / variants[0].wall_seconds
                 : 0.0,
             "%.3f")
      .Field("attack_wall_ratio",
             variants[1].wall_seconds > 0
                 ? variants[2].wall_seconds / variants[1].wall_seconds
                 : 0.0,
             "%.3f")
      .EndObject();
  w.EndObject();

  FILE* f = std::fopen(cfg.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 cfg.out_path.c_str());
    return;
  }
  std::string body = w.Take() + "\n";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", cfg.out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 20;
      cfg.per_class = 1;
    } else if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      cfg.loss = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--loss RATE] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (const char* v = std::getenv("PROVNET_ADV_N")) {
    cfg.n = static_cast<size_t>(std::atoll(v));
    if (cfg.n < 6) cfg.n = 6;
  }
  if (const char* v = std::getenv("PROVNET_ADV_CLASSES")) {
    cfg.per_class = static_cast<size_t>(std::atoll(v));
    if (cfg.per_class < 1) cfg.per_class = 1;
  }
  if (const char* v = std::getenv("PROVNET_ADV_SEED")) {
    cfg.seed = static_cast<uint64_t>(std::atoll(v));
  }
  if (const char* v = std::getenv("PROVNET_ADV_RSA")) {
    cfg.rsa = std::atoi(v) != 0;
  }
  if (const char* v = std::getenv("PROVNET_ADV_LOSS")) {
    cfg.loss = std::atof(v);
  }
  if (cfg.loss < 0 || cfg.loss >= 1) {
    std::fprintf(stderr, "--loss must be in [0, 1)\n");
    return 2;
  }

  Rng rng(cfg.seed);
  Topology topo = Topology::RingPlusRandom(cfg.n, 3, rng);
  Rng churn_rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
  ChurnScript churn = ChurnScript::RandomLinkFlaps(
      topo, /*flaps=*/4, /*start=*/1.0, /*spacing=*/1.0, churn_rng);
  std::vector<NodeId> attackers = {
      static_cast<NodeId>(cfg.n / 7 + 1),
      static_cast<NodeId>(cfg.n / 2 + 1),
  };

  std::printf("bench_adversary: Best-Path on %zu nodes, 4 link flaps, "
              "%zu injections/class, attackers {%u, %u}, says=%s, "
              "loss=%.1f%%\n\n",
              cfg.n, cfg.per_class, attackers[0], attackers[1],
              cfg.rsa ? "rsa" : "hmac", cfg.loss * 100.0);
  std::printf("%-9s %10s %10s %9s %8s %9s\n", "variant", "wall s", "MB",
              "msgs", "signs", "verifies");

  std::vector<VariantStats> variants;
  auto ndlog = RunHonest("ndlog", topo, churn, NdlogOptions(cfg));
  if (!ndlog.ok()) {
    std::fprintf(stderr, "ndlog failed: %s\n",
                 ndlog.status().ToString().c_str());
    return 1;
  }
  variants.push_back(ndlog.value());
  auto secure = RunHonest("secure", topo, churn, SecureOptions(cfg));
  if (!secure.ok()) {
    std::fprintf(stderr, "secure failed: %s\n",
                 secure.status().ToString().c_str());
    return 1;
  }
  variants.push_back(secure.value());
  auto attacked = RunAttacked(cfg, topo, churn, attackers);
  if (!attacked.ok()) {
    std::fprintf(stderr, "attacked failed: %s\n",
                 attacked.status().ToString().c_str());
    return 1;
  }
  variants.push_back(attacked.value().stats);

  for (const VariantStats& v : variants) {
    std::printf("%-9s %10.3f %10.3f %9llu %8llu %9llu\n", v.name.c_str(),
                v.wall_seconds, v.mbytes,
                static_cast<unsigned long long>(v.messages),
                static_cast<unsigned long long>(v.signs),
                static_cast<unsigned long long>(v.verifies));
  }

  const CampaignReport& r = attacked.value().report;
  std::printf("\ncampaign: %s\n", r.Summary().c_str());
  for (const auto& [kind, injected] : attacked.value().injected_per_class) {
    size_t detected = 0;
    auto it = attacked.value().detected_per_class.find(kind);
    if (it != attacked.value().detected_per_class.end()) {
      detected = it->second;
    }
    std::printf("  %-18s injected=%zu detected=%zu\n", kind.c_str(), injected,
                detected);
  }

  WriteJson(cfg, variants, attacked.value());

  bool pass = r.forged_in_fixpoint == 0 && r.detected == r.injected &&
              attacked.value().injected_per_class.size() >= 4 &&
              attacked.value().kreplay_false_positives == 0;
  std::printf("\n%s: %zu attack classes, %zu/%zu detected, %zu forged "
              "tuples left in honest fixpoints, %llu kReplay false "
              "positives\n",
              pass ? "PASS" : "FAIL",
              attacked.value().injected_per_class.size(), r.detected,
              r.injected, r.forged_in_fixpoint,
              static_cast<unsigned long long>(
                  attacked.value().kreplay_false_positives));
  return pass ? 0 : 1;
}
