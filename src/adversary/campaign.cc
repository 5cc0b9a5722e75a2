#include "adversary/campaign.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "apps/forensics.h"
#include "query/provquery.h"
#include "util/strings.h"

namespace provnet {

namespace {

bool IsForgeKind(AttackKind kind) {
  return kind == AttackKind::kForgeStolenKey ||
         kind == AttackKind::kForgeBadSig ||
         kind == AttackKind::kForgeNoSig;
}

bool LeavesStateKind(AttackKind kind) {
  // Attack classes whose injected tuple could end up stored somewhere.
  return IsForgeKind(kind) || kind == AttackKind::kEquivocate;
}

// The operator's invariant, true for tuples that cannot occur honestly: no
// link/path/bestPath can cost less than 1 (RingPlusRandom topologies use
// positive costs).
bool ViolatesInvariant(const Tuple& t) {
  size_t cost_arg;
  if (t.predicate() == "link" && t.arity() >= 3) {
    cost_arg = 2;
  } else if ((t.predicate() == "path" || t.predicate() == "bestPath") &&
             t.arity() >= 4) {
    cost_arg = 3;
  } else if (t.predicate() == "bestPathCost" && t.arity() >= 3) {
    cost_arg = 2;
  } else {
    return false;
  }
  const Value& v = t.arg(cost_arg);
  return v.kind() == ValueKind::kInt && v.AsInt() < 1;
}

}  // namespace

void AttackScript::AddChurn(const ChurnScript& churn) {
  for (const ChurnEvent& e : churn.events) {
    CampaignEvent event;
    event.at = e.at;
    event.kind = CampaignEvent::Kind::kChurn;
    event.churn = e;
    events.push_back(std::move(event));
  }
}

void AttackScript::AddAttack(double at, AttackAction action) {
  CampaignEvent event;
  event.at = at;
  event.kind = CampaignEvent::Kind::kAttack;
  event.attack = std::move(action);
  events.push_back(std::move(event));
}

void AttackScript::AddAuditSweeps(double start, double interval, double end) {
  for (double at = start; at <= end; at += interval) {
    CampaignEvent event;
    event.at = at;
    event.kind = CampaignEvent::Kind::kAudit;
    events.push_back(std::move(event));
  }
}

void AttackScript::SortByTime() {
  std::stable_sort(events.begin(), events.end(),
                   [](const CampaignEvent& a, const CampaignEvent& b) {
                     return a.at < b.at;
                   });
}

AttackScript AttackScript::RandomAttacks(const Topology& topo,
                                         const std::vector<NodeId>& attackers,
                                         size_t per_class, double start,
                                         double spacing, Rng& rng) {
  AttackScript script;
  if (attackers.empty() || topo.num_nodes < 4) return script;

  std::vector<NodeId> honest;
  for (NodeId n = 0; n < topo.num_nodes; ++n) {
    if (std::find(attackers.begin(), attackers.end(), n) == attackers.end()) {
      honest.push_back(n);
    }
  }
  if (honest.size() < 2) return script;
  auto pick_honest = [&]() { return honest[rng.NextBelow(honest.size())]; };
  auto link3 = [](NodeId a, NodeId b, int64_t c) {
    return Tuple("link",
                 {Value::Address(a), Value::Address(b), Value::Int(c)});
  };
  // A forged link must not collide with a real edge: the table's (src, dst)
  // primary key would *replace* the honest base fact, and base facts are
  // never re-derived — the attack would double as vandalism the golden
  // checks cannot score. Forge non-existent links only.
  auto pick_non_neighbor = [&](NodeId src) {
    for (int probe = 0; probe < 16; ++probe) {
      NodeId cand = static_cast<NodeId>(rng.NextBelow(topo.num_nodes));
      if (cand == src) continue;
      bool edge_exists = false;
      for (const TopoEdge& e : topo.edges) {
        if (e.from == src && e.to == cand) {
          edge_exists = true;
          break;
        }
      }
      if (!edge_exists) return cand;
    }
    return src;  // pathological topology; the forgery becomes a no-op
  };

  double at = start;
  for (size_t i = 0; i < per_class; ++i) {
    NodeId attacker = attackers[i % attackers.size()];

    // Stolen-key forgery: a zero-cost link at an honest node. Signed with
    // the attacker's own (compromised-but-valid) key, so verification
    // passes and the forged link *fires rules* at the victim — only
    // provenance can catch it.
    {
      AttackAction a;
      a.kind = AttackKind::kForgeStolenKey;
      a.attacker = attacker;
      a.victim = pick_honest();
      a.tuple = link3(a.victim, pick_non_neighbor(a.victim), 0);
      script.AddAttack(at, std::move(a));
      at += spacing;
    }
    // Bad-signature forgery: same shape, corrupted proof bytes.
    {
      AttackAction a;
      a.kind = AttackKind::kForgeBadSig;
      a.attacker = attacker;
      a.victim = pick_honest();
      a.tuple = link3(a.victim, pick_non_neighbor(a.victim), 0);
      script.AddAttack(at, std::move(a));
      at += spacing;
    }
    // Replay of a captured authenticated message; alternate between the
    // original destination (sequence record) and a diverted one (signed
    // destination check).
    {
      AttackAction a;
      a.kind = AttackKind::kReplay;
      a.attacker = attacker;
      if (i % 2 == 1) a.redirect = pick_honest();
      script.AddAttack(at, std::move(a));
      at += spacing;
    }
    // Equivocation: conflicting claims about the attacker's own link state
    // to two different honest nodes.
    {
      AttackAction a;
      a.kind = AttackKind::kEquivocate;
      a.attacker = attacker;
      a.victim = pick_honest();
      a.victim2 = pick_honest();
      if (a.victim2 == a.victim) a.victim2 = honest[(honest.front() == a.victim) ? honest.size() - 1 : 0];
      NodeId target = pick_honest();
      a.tuple = link3(attacker, target, 1);
      a.tuple2 = link3(attacker, target, 99);
      script.AddAttack(at, std::move(a));
      at += spacing;
    }
    // Unauthorized retraction of a real link the victim asserted.
    {
      const TopoEdge* edge = nullptr;
      for (size_t probe = 0; probe < topo.edges.size(); ++probe) {
        const TopoEdge& e = topo.edges[rng.NextBelow(topo.edges.size())];
        if (std::find(attackers.begin(), attackers.end(), e.from) ==
            attackers.end()) {
          edge = &e;
          break;
        }
      }
      if (edge != nullptr) {
        AttackAction a;
        a.kind = AttackKind::kRogueRetract;
        a.attacker = attacker;
        a.victim = edge->from;
        a.tuple = link3(edge->from, edge->to, edge->cost);
        script.AddAttack(at, std::move(a));
      }
      at += spacing;
    }
  }
  script.SortByTime();
  return script;
}

Result<std::vector<EquivocationFinding>> EquivocationAudit(
    Engine& engine, const std::set<std::string>& predicates,
    const std::set<NodeId>& skip_nodes, std::optional<NodeId> auditor,
    std::set<NodeId>* silent) {
  NodeId audit_node = 0;
  bool have_auditor = auditor.has_value();
  if (have_auditor) {
    audit_node = *auditor;
  } else {
    for (NodeId n = 0; n < engine.num_nodes(); ++n) {
      if (skip_nodes.count(n) == 0) {
        audit_node = n;
        have_auditor = true;
        break;
      }
    }
  }
  if (!have_auditor) {
    return FailedPreconditionError("equivocation audit: no honest auditor");
  }

  // Phase one — the claims exchange: every honest node ships its claims of
  // the audited predicates to the auditor over the signed query wire path.
  ClaimsExchange exchange(engine, audit_node);
  PROVNET_ASSIGN_OR_RETURN(std::vector<ClaimsExchange::Claim> collected,
                           exchange.Collect(predicates, skip_nodes));
  if (silent != nullptr) *silent = exchange.silent();

  // Key columns resolved once per audited predicate, not per claim.
  std::map<std::string, std::vector<int>> keys_of;
  for (const std::string& pred : predicates) {
    keys_of.emplace(pred, engine.plan().OptionsFor(pred).key_columns);
  }

  // Phase two, at the auditor: walk the claims in collected order under
  // their equivocation key (predicate | principal | key columns), compare
  // each tuple with the key's first claim, and report a key once, at its
  // first claim that disagrees. Findings thus come out by the collected
  // position of the disagreeing claim.
  std::map<std::string, std::pair<size_t, bool>> seen;  // first, reported
  std::vector<EquivocationFinding> findings;
  for (size_t i = 0; i < collected.size(); ++i) {
    const ClaimsExchange::Claim& claim = collected[i];
    const std::string& pred = claim.tuple.predicate();
    const std::vector<int>& keys = keys_of[pred];
    std::string key = pred + "|" + claim.asserted_by + "|";
    if (keys.empty()) {
      key += claim.tuple.ToString();
    } else {
      for (int c : keys) {
        if (static_cast<size_t>(c) < claim.tuple.arity()) {
          key += claim.tuple.arg(static_cast<size_t>(c)).ToString() + ",";
        }
      }
    }
    auto [it, fresh] = seen.emplace(key, std::make_pair(i, false));
    auto& [first_index, reported] = it->second;
    if (fresh || reported) continue;
    const ClaimsExchange::Claim& first = collected[first_index];
    if (claim.tuple == first.tuple) continue;
    reported = true;
    EquivocationFinding f;
    f.principal = claim.asserted_by;
    f.node_a = first.node;
    f.node_b = claim.node;
    f.claim_a = first.tuple;
    f.claim_b = claim.tuple;
    findings.push_back(std::move(f));
  }
  return findings;
}

std::string CampaignReport::Summary() const {
  return StrFormat(
      "%zu injected: %zu detected (%zu at verify, %zu localized correctly), "
      "forged-in-fixpoint=%zu, latency mean=%.3fs max=%.3fs, bytes=%llu "
      "msgs=%llu dropped=%llu flagged=%zu",
      injected, detected, rejected_at_verify, localized_correct,
      forged_in_fixpoint, mean_detection_latency_s, max_detection_latency_s,
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(messages),
      static_cast<unsigned long long>(dropped_by_adversary), flagged.size());
}

AttackCampaignDriver::AttackCampaignDriver(Engine& engine,
                                           Adversary& adversary)
    : engine_(engine), adversary_(adversary), churn_(engine) {}

void AttackCampaignDriver::MarkDetected(AttackOutcome& outcome, double at,
                                        std::string method,
                                        std::set<Principal> localized) {
  outcome.detected = true;
  outcome.detected_at = at;
  outcome.method = std::move(method);
  outcome.localized = std::move(localized);
  Principal attacker_principal = engine_.PrincipalOf(outcome.injection.attacker);
  outcome.localized_correct =
      outcome.localized.count(attacker_principal) != 0 ||
      (!outcome.injection.claimed.empty() &&
       outcome.localized.count(outcome.injection.claimed) != 0);
}

void AttackCampaignDriver::MatchSecurityEvents(CampaignReport& report) {
  const std::vector<SecurityEvent>& log = engine_.security_log().events();
  for (; log_cursor_ < log.size(); ++log_cursor_) {
    const SecurityEvent& ev = log[log_cursor_];
    auto matches = [&](const AttackOutcome& o) {
      if (o.detected) return false;
      const InjectionRecord& inj = o.injection;
      switch (ev.kind) {
        case SecurityEventKind::kBadSignature:
          if (inj.kind != AttackKind::kForgeBadSig) return false;
          break;
        case SecurityEventKind::kMissingSignature:
          if (inj.kind != AttackKind::kForgeNoSig) return false;
          break;
        case SecurityEventKind::kUnknownPrincipal:
        case SecurityEventKind::kForeignProvenance:
          // A foreign annotation cube is evidence of a forged tuple too.
          if (!IsForgeKind(inj.kind)) return false;
          break;
        case SecurityEventKind::kReplay:
        case SecurityEventKind::kMisdirected:
          if (inj.kind != AttackKind::kReplay) return false;
          break;
        case SecurityEventKind::kUnauthorizedRetract:
          if (inj.kind != AttackKind::kRogueRetract) return false;
          break;
        case SecurityEventKind::kMalformed:
          return false;
        case SecurityEventKind::kBogusResponse:
        case SecurityEventKind::kSilentResponder:
          // Query-path evidence is not matched to injection records: a
          // silent responder becomes a suspect in the audit sweep itself,
          // and a bogus response is evidence about the query wire, not
          // about the tuples injected at the node.
          return false;
      }
      return ev.node == inj.victim;
    };
    for (AttackOutcome& o : report.outcomes) {
      if (!matches(o)) continue;
      // Verification rejections attribute via the transport-level sender.
      MarkDetected(o, ev.at,
                   std::string("verify:") + SecurityEventKindName(ev.kind),
                   {engine_.PrincipalOf(ev.from)});
      break;
    }
  }
}

Status AttackCampaignDriver::RunAuditSweep(CampaignReport& report) {
  double now = engine_.network().now();
  std::set<NodeId> compromised;
  for (const auto& [node, policy] : adversary_.compromised()) {
    compromised.insert(node);
  }

  std::set<Principal> suspects;

  // 1. Cross-node equivocation audit. A responder that suppresses its
  // answer incriminates itself: silence joins the suspect set directly.
  std::set<NodeId> silent;
  PROVNET_ASSIGN_OR_RETURN(
      std::vector<EquivocationFinding> findings,
      EquivocationAudit(engine_, {"link"}, compromised, std::nullopt,
                        &silent));
  for (NodeId n : silent) {
    suspects.insert(engine_.PrincipalOf(n));
  }
  for (const EquivocationFinding& f : findings) {
    suspects.insert(f.principal);
    for (AttackOutcome& o : report.outcomes) {
      if (!o.detected && o.injection.kind == AttackKind::kEquivocate &&
          o.injection.claimed == f.principal) {
        MarkDetected(o, now, "audit:equivocation", {f.principal});
      }
    }
  }

  // 2. Policy-violation scan over honest state, localizing via the
  // authenticated assertion (asserted_by) or, for derived tuples, the
  // intersection of principal-grain annotation variables.
  struct Violation {
    NodeId node = 0;
    Tuple tuple;
    Principal asserted_by;
    bool foreign = false;  // asserted by someone other than the holder
  };
  std::vector<Violation> violations;
  std::set<Principal> anno_intersection;
  bool first_annotation = true;
  for (NodeId n = 0; n < engine_.num_nodes(); ++n) {
    if (compromised.count(n) != 0) continue;
    Principal own = engine_.PrincipalOf(n);
    for (Table* table : engine_.node(n).AllTables()) {
      for (const StoredTuple* e : table->Scan()) {
        if (!ViolatesInvariant(e->tuple)) continue;
        Violation v;
        v.node = n;
        v.tuple = e->tuple;
        v.asserted_by = e->asserted_by;
        v.foreign = !e->asserted_by.empty() && e->asserted_by != own;
        if (v.foreign) {
          suspects.insert(e->asserted_by);
        } else if (!e->prov.IsZero() && !e->prov.IsOne()) {
          // Honest-derived violation: every derivation of it passes through
          // the culprit, so the culprit survives the intersection.
          std::set<Principal> here;
          for (ProvVar var : e->prov.Variables()) {
            Principal name = engine_.VarName(var);
            if (name != own && engine_.NodeOf(name).ok()) here.insert(name);
          }
          if (first_annotation) {
            anno_intersection = std::move(here);
            first_annotation = false;
          } else {
            std::set<Principal> merged;
            for (const Principal& p : anno_intersection) {
              if (here.count(p) != 0) merged.insert(p);
            }
            anno_intersection = std::move(merged);
          }
        }
        violations.push_back(std::move(v));
      }
    }
  }
  if (suspects.empty()) suspects = anno_intersection;

  // 3. Distributed provenance traceback on the first violation: confirms
  // the origin over the wire (charged to the meters) — the Section 3/4.2
  // forensic query.
  if (!violations.empty()) {
    Result<TracebackReport> trace =
        Traceback(engine_, violations.front().node, violations.front().tuple);
    if (trace.ok()) {
      for (NodeId origin : trace.value().origin_nodes) {
        if (compromised.count(origin) != 0) {
          suspects.insert(engine_.PrincipalOf(origin));
        }
      }
    }
  }

  // 4. Score: a violating tuple (or a suspect naming) detects the forgery
  // that planted it.
  if (!violations.empty() || !suspects.empty()) {
    for (AttackOutcome& o : report.outcomes) {
      if (o.detected || !LeavesStateKind(o.injection.kind)) continue;
      bool tuple_seen = false;
      for (const Violation& v : violations) {
        if (v.tuple == o.injection.tuple) {
          tuple_seen = true;
          break;
        }
      }
      if (tuple_seen || suspects.count(o.injection.claimed) != 0) {
        MarkDetected(o, now, "audit:traceback", suspects);
      }
    }
  }

  // 5. Respond: revoke every localized principal and re-run to the
  // post-revocation fixpoint (Section 4.2's compromise response). Suspects
  // are only non-empty while tainted state exists, so a re-offending
  // principal is revoked again on the next sweep and the loop converges.
  for (const Principal& p : suspects) {
    report.flagged.insert(p);
    PROVNET_RETURN_IF_ERROR(engine_.RetractPrincipal(p));
  }
  if (!suspects.empty()) {
    PROVNET_RETURN_IF_ERROR(engine_.Run().status());
    MatchSecurityEvents(report);
  }
  return OkStatus();
}

Status AttackCampaignDriver::ApplyAttack(const AttackAction& action) {
  switch (action.kind) {
    case AttackKind::kForgeBadSig:
    case AttackKind::kForgeStolenKey:
    case AttackKind::kForgeNoSig: {
      Principal as = action.as.empty() ? engine_.PrincipalOf(action.attacker)
                                       : action.as;
      return adversary_.InjectForgedTuple(action.kind, action.attacker,
                                          action.victim, action.tuple, as);
    }
    case AttackKind::kReplay: {
      Status s = adversary_.InjectReplay(action.attacker, action.redirect);
      // Nothing captured yet: the script fired before any traffic crossed a
      // compromised node. Not an error; the attack simply never happened.
      if (!s.ok() && s.code() == StatusCode::kNotFound) return OkStatus();
      return s;
    }
    case AttackKind::kEquivocate:
      return adversary_.InjectEquivocation(action.attacker, action.victim,
                                           action.tuple, action.victim2,
                                           action.tuple2);
    case AttackKind::kRogueRetract: {
      // An adversary observing the victim would not retract a tuple it does
      // not hold (churn may have beaten the script to it); and an absent
      // target makes the attack an unscoreable no-op.
      const Table* table =
          engine_.node(action.victim).FindTable(action.tuple.predicate());
      if (table == nullptr || table->Find(action.tuple) == nullptr) {
        return OkStatus();
      }
      return adversary_.InjectRogueRetract(action.attacker, action.victim,
                                           action.tuple);
    }
    case AttackKind::kDrop:
    case AttackKind::kDelay:
      adversary_.Compromise(action.attacker, action.policy);
      return OkStatus();
  }
  return InvalidArgumentError("unknown attack kind");
}

Result<CampaignReport> AttackCampaignDriver::Replay(
    const AttackScript& script) {
  CampaignReport report;
  Network& net = engine_.network();
  Network::Meters meters0 = net.MeterSnapshot();
  auto t0 = std::chrono::steady_clock::now();

  for (const CampaignEvent& event : script.events) {
    switch (event.kind) {
      case CampaignEvent::Kind::kChurn: {
        PROVNET_RETURN_IF_ERROR(churn_.Step(event.churn).status());
        break;
      }
      case CampaignEvent::Kind::kAttack: {
        if (event.at > net.now()) net.AdvanceTime(event.at - net.now());
        engine_.ExpireNow();
        PROVNET_RETURN_IF_ERROR(ApplyAttack(event.attack));
        PROVNET_RETURN_IF_ERROR(engine_.Run().status());
        break;
      }
      case CampaignEvent::Kind::kAudit: {
        if (event.at > net.now()) net.AdvanceTime(event.at - net.now());
        PROVNET_RETURN_IF_ERROR(RunAuditSweep(report));
        break;
      }
    }
    // New injections become pending outcomes; fresh rejections resolve them.
    const std::vector<InjectionRecord>& injections = adversary_.injections();
    for (; injection_cursor_ < injections.size(); ++injection_cursor_) {
      AttackOutcome outcome;
      outcome.injection = injections[injection_cursor_];
      report.outcomes.push_back(std::move(outcome));
    }
    MatchSecurityEvents(report);
  }

  // Final sweep: whatever slipped past the inline defenses must fall to the
  // audit, and the response must leave the fixpoint clean.
  PROVNET_RETURN_IF_ERROR(RunAuditSweep(report));
  MatchSecurityEvents(report);

  auto t1 = std::chrono::steady_clock::now();
  Network::Meters meters1 = net.MeterSnapshot();
  report.bytes = meters1.bytes - meters0.bytes;
  report.messages = meters1.messages - meters0.messages;
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.dropped_by_adversary = adversary_.dropped_count();

  report.injected = report.outcomes.size();
  double latency_sum = 0.0;
  size_t latency_n = 0;
  for (const AttackOutcome& o : report.outcomes) {
    if (!o.detected) continue;
    ++report.detected;
    if (o.method.rfind("verify:", 0) == 0) ++report.rejected_at_verify;
    if (o.localized_correct) ++report.localized_correct;
    latency_sum += o.latency();
    report.max_detection_latency_s =
        std::max(report.max_detection_latency_s, o.latency());
    ++latency_n;
  }
  if (latency_n > 0) report.mean_detection_latency_s = latency_sum / latency_n;

  // Ground truth: no forged/equivocated tuple may survive in honest state.
  for (const AttackOutcome& o : report.outcomes) {
    if (!LeavesStateKind(o.injection.kind)) continue;
    const Tuple& t = o.injection.tuple;
    if (t.predicate().empty()) continue;
    for (NodeId n = 0; n < engine_.num_nodes(); ++n) {
      if (adversary_.IsCompromised(n)) continue;
      std::vector<Tuple> stored = engine_.TuplesAt(n, t.predicate());
      if (std::find(stored.begin(), stored.end(), t) != stored.end()) {
        ++report.forged_in_fixpoint;
        break;
      }
    }
  }
  return report;
}

}  // namespace provnet
