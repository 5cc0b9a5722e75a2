#include "net/faults.h"

#include <cstdlib>

#include "util/hash.h"

namespace provnet {
namespace {

uint64_t LinkKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

// Salts separating the independent per-attempt draws.
constexpr uint64_t kLossSalt = 0x6c6f7373;      // "loss"
constexpr uint64_t kDupSalt = 0x64757000;       // "dup"
constexpr uint64_t kCorruptSalt = 0x636f7272;   // "corr"
constexpr uint64_t kReorderSalt = 0x72656f72;   // "reor"

}  // namespace

FaultPlan FaultPlan::UniformLoss(double rate, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (rate > 0.0) {
    LinkFaultSpec spec;
    spec.loss = rate;
    plan.links.push_back(spec);
  }
  return plan;
}

FaultPlan FaultPlan::ParseSpec(const std::string& spec, bool* ok) {
  FaultPlan plan;
  LinkFaultSpec link;  // wildcard endpoints
  bool any_rate = false;
  *ok = true;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *ok = false;
      return FaultPlan{};
    }
    std::string key = item.substr(0, eq);
    std::string val = item.substr(eq + 1);
    char* end = nullptr;
    double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') {
      *ok = false;
      return FaultPlan{};
    }
    if (key == "seed") {
      plan.seed = static_cast<uint64_t>(num);
    } else if (key == "loss") {
      link.loss = num;
      any_rate = true;
    } else if (key == "dup") {
      link.duplication = num;
      any_rate = true;
    } else if (key == "corrupt") {
      link.corruption = num;
      any_rate = true;
    } else if (key == "reorder") {
      link.reorder = num;
      any_rate = true;
    } else if (key == "reorder_delay") {
      link.reorder_delay_s = num;
    } else {
      *ok = false;
      return FaultPlan{};
    }
  }
  if (any_rate) plan.links.push_back(link);
  return plan;
}

const LinkFaultSpec* FaultInjector::SpecFor(NodeId from, NodeId to) const {
  const LinkFaultSpec* wildcard = nullptr;
  for (const LinkFaultSpec& spec : plan_.links) {
    if (spec.from == from && spec.to == to) return &spec;
    bool from_ok = spec.from == kAnyNode || spec.from == from;
    bool to_ok = spec.to == kAnyNode || spec.to == to;
    if (from_ok && to_ok && wildcard == nullptr) wildcard = &spec;
  }
  return wildcard;
}

double FaultInjector::Draw(NodeId from, NodeId to, uint64_t counter,
                           uint64_t salt) const {
  uint64_t h = HashCombine(plan_.seed, LinkKey(from, to));
  h = HashCombine(h, counter);
  h = Mix64(h ^ salt);
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::Verdict FaultInjector::OnTransmit(NodeId from, NodeId to) {
  Verdict verdict;
  const LinkFaultSpec* spec = SpecFor(from, to);
  if (spec == nullptr) return verdict;
  uint64_t counter = attempt_counters_[LinkKey(from, to)]++;
  if (spec->loss > 0.0 && Draw(from, to, counter, kLossSalt) < spec->loss) {
    verdict.drop = true;
    return verdict;  // a lost message can be nothing else
  }
  if (spec->duplication > 0.0 &&
      Draw(from, to, counter, kDupSalt) < spec->duplication) {
    verdict.duplicate = true;
  }
  if (spec->corruption > 0.0 &&
      Draw(from, to, counter, kCorruptSalt) < spec->corruption) {
    verdict.corrupt = true;
  }
  if (spec->reorder > 0.0 &&
      Draw(from, to, counter, kReorderSalt) < spec->reorder) {
    verdict.extra_delay_s = spec->reorder_delay_s;
  }
  return verdict;
}

bool FaultInjector::Partitioned(NodeId from, NodeId to, double now) const {
  for (const PartitionSpec& p : plan_.partitions) {
    if (now < p.start || now >= p.end) continue;
    if (p.a == from && p.b == to) return true;
    if (p.bidirectional && p.a == to && p.b == from) return true;
  }
  return false;
}

}  // namespace provnet
