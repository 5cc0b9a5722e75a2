// The wire envelope (src/core/envelope.h): every message kind is sealed and
// opened by one codec, so its bytes, its byte accounting, and its handling of
// hostile input are pinned here.
//
// The oracles:
//   * pinned bytes - a chained digest over every honest payload of four
//     seeded runs (NDLog, SeNDLog with condensed, pointer and full
//     provenance) must not move, at one thread and at four, and neither
//     may the digest of pointer walks answered from the offline archive;
//   * quarantine   - torn or truncated messages of every kind, bare or
//     re-signed under the sender's key, never fail the run: each delivery
//     becomes exactly one security event;
//   * payload kind - a receiver takes only the provenance payload kind its
//     own mode ships;
//   * accounting   - net.auth_bytes is the signed header plus the says tag of
//     every tuple and retract message;
//   * attribution  - a full-provenance leaf that names no asserter folds to
//     the variable of whichever node sent it.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>

#include "apps/programs.h"
#include "core/engine.h"
#include "core/envelope.h"
#include "net/topology.h"
#include "provenance/condense.h"
#include "provenance/derivation.h"
#include "query/provquery.h"
#include "util/hash.h"
#include "util/random.h"

namespace provnet {
namespace {

Tuple Link3(NodeId a, NodeId b, int64_t c) {
  return Tuple("link", {Value::Address(a), Value::Address(b), Value::Int(c)});
}

// Chains a 64-bit digest over every payload the network's send tap sees and
// counts the payloads by message kind (the envelope's first byte).
struct WireDigest {
  uint64_t digest = 0;
  std::map<uint8_t, uint64_t> per_kind;

  void Attach(Engine& engine) {
    engine.network().SetSendTap([this](const NetMessage& msg) {
      ByteWriter chained;
      chained.PutU64(digest);
      chained.PutRaw(msg.payload.data(), msg.payload.size());
      digest = Fnv1a64(chained.bytes());
      ++per_kind[msg.payload.empty() ? 0 : msg.payload[0]];
      return Network::TapVerdict{};
    });
  }
};

enum class Variant { kNdlog, kCondensed, kPointers, kFull };

// One seeded run: the Best-Path fixpoint over RingPlusRandom(10, 3), one
// DeleteFact step, and for the pointer variant a distributed walk and a
// claims exchange.
WireDigest RunVariant(Variant variant, size_t threads) {
  Rng rng(5);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  EngineOptions opts;
  opts.threads = threads;
  opts.authenticate = variant != Variant::kNdlog;
  opts.says_level = SaysLevel::kHmac;
  switch (variant) {
    case Variant::kNdlog:
      break;
    case Variant::kCondensed:
      opts.prov_mode = ProvMode::kCondensed;
      break;
    case Variant::kPointers:
      opts.prov_mode = ProvMode::kPointers;
      break;
    case Variant::kFull:
      opts.prov_mode = ProvMode::kFull;
      break;
  }
  const std::string& program = variant == Variant::kNdlog
                                   ? BestPathNdlogProgram()
                                   : BestPathSendlogProgram();
  auto engine = Engine::Create(topo, program, opts).value();
  WireDigest wire;
  wire.Attach(*engine);
  EXPECT_TRUE(engine->InsertLinkFacts().ok());
  EXPECT_TRUE(engine->Run().ok());

  const TopoEdge& cut = topo.edges.front();
  EXPECT_TRUE(
      engine->DeleteFact(cut.from, Link3(cut.from, cut.to, cut.cost)).ok());
  EXPECT_TRUE(engine->Run().ok());

  if (variant == Variant::kPointers) {
    std::vector<Tuple> best = engine->TuplesAt(3, "bestPath");
    EXPECT_FALSE(best.empty());
    Result<QueryResult> walk = ProvQueryBuilder(*engine)
                                   .At(3)
                                   .Of(best.back())
                                   .WithScope(QueryScope::kDistributed)
                                   .Run();
    EXPECT_TRUE(walk.ok()) << walk.status();

    ClaimsExchange claims_exchange(*engine, /*auditor=*/0);
    Result<std::vector<ClaimsExchange::Claim>> claims =
        claims_exchange.Collect({"link"}, /*skip_nodes=*/{});
    EXPECT_TRUE(claims.ok()) << claims.status();
    EXPECT_TRUE(claims_exchange.silent().empty());
  }
  EXPECT_EQ(engine->security_log().size(), 0u);
  engine->network().ClearSendTap();
  return wire;
}

struct Pinned {
  Variant variant;
  uint64_t digest;
  // By wire tag: 1 tuple, 2 query request, 3 query response, 4 retract.
  std::map<uint8_t, uint64_t> per_kind;
};

TEST(EnvelopeTest, HonestWireBytesArePinned) {
  const Pinned pinned[] = {
      {Variant::kNdlog, 6152398770891977051ull, {{1, 329}, {4, 19}}},
      {Variant::kCondensed, 15068676882828553372ull, {{1, 329}, {4, 19}}},
      {Variant::kPointers,
       8547425074465526027ull,
       {{1, 329}, {2, 14}, {3, 14}, {4, 19}}},
      {Variant::kFull, 13687397267280688170ull, {{1, 329}, {4, 19}}},
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (const Pinned& want : pinned) {
      SCOPED_TRACE(::testing::Message()
                   << "variant " << static_cast<int>(want.variant)
                   << " threads " << threads);
      WireDigest got = RunVariant(want.variant, threads);
      EXPECT_EQ(got.digest, want.digest);
      EXPECT_EQ(got.per_kind, want.per_kind);
    }
  }
}

// Pointer provenance with HMAC says and an in-memory archive: after the
// fixpoint the odd nodes' online stores are cleared, so the distributed walk
// of every bestPath at every node gets its records from those nodes'
// archives. Returns the wire digest of the walks alone and adds up their
// archive hits.
WireDigest RunArchiveServedWalks(size_t threads, uint64_t* offline_hits) {
  Rng rng(5);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  EngineOptions opts;
  opts.threads = threads;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kPointers;
  opts.record_offline = true;
  auto engine =
      Engine::Create(topo, BestPathSendlogProgram(), opts).value();
  EXPECT_TRUE(engine->InsertLinkFacts().ok());
  EXPECT_TRUE(engine->Run().ok());
  for (NodeId n = 1; n < engine->num_nodes(); n += 2) {
    engine->node(n).online_store().Clear();
  }

  WireDigest wire;
  wire.Attach(*engine);
  for (NodeId n = 0; n < engine->num_nodes(); ++n) {
    for (const Tuple& best : engine->TuplesAt(n, "bestPath")) {
      Result<QueryResult> walk = ProvQueryBuilder(*engine)
                                     .At(n)
                                     .Of(best)
                                     .WithScope(QueryScope::kDistributed)
                                     .Run();
      EXPECT_TRUE(walk.ok()) << walk.status();
      if (walk.ok()) *offline_hits += walk->stats.offline_hits;
    }
  }
  EXPECT_EQ(engine->security_log().size(), 0u);
  engine->network().ClearSendTap();
  return wire;
}

// Records answers served from the archive ship the same bytes whichever
// store encoded them; pinned at one thread and at four.
TEST(EnvelopeTest, ArchiveServedWireBytesArePinned) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    uint64_t offline_hits = 0;
    WireDigest got = RunArchiveServedWalks(threads, &offline_hits);
    EXPECT_EQ(got.digest, 14078179959162227642ull);
    EXPECT_EQ(got.per_kind,
              (std::map<uint8_t, uint64_t>{{2, 434}, {3, 434}}));
    EXPECT_EQ(offline_hits, 350u);
  }
}

// Signs `content` under `principal`'s key into a `type` envelope.
Bytes Sign(Engine& engine, uint8_t type, const Principal& principal,
           Bytes content) {
  Envelope env;
  env.type = type;
  env.content = std::move(content);
  env.tag = engine.authenticator()
                .Say(principal, env.content, engine.options().says_level)
                .value();
  return env.Encode();
}

// Sends `wire` from `from` to every node of `dests` at the same instant,
// runs to quiescence, and returns how many security events that added.
size_t Deliver(Engine& engine, NodeId from, const std::vector<NodeId>& dests,
               const Bytes& wire) {
  const size_t before = engine.security_log().size();
  for (NodeId dest : dests) {
    EXPECT_TRUE(engine.network().Send(from, dest, wire).ok());
  }
  Result<RunStats> run = engine.Run();
  EXPECT_TRUE(run.ok()) << run.status();
  return engine.security_log().size() - before;
}

EngineOptions HmacOptions(ProvMode mode) {
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = mode;
  return opts;
}

TEST(EnvelopeTest, TornMessagesAreQuarantined) {
  for (ProvMode mode :
       {ProvMode::kCondensed, ProvMode::kPointers, ProvMode::kFull}) {
    SCOPED_TRACE(ProvModeName(mode));
    Rng rng(5);
    Topology topo = Topology::RingPlusRandom(10, 3, rng);
    auto engine =
        Engine::Create(topo, BestPathSendlogProgram(), HmacOptions(mode))
            .value();
    // The first honest message of each kind: a fixpoint, one DeleteFact,
    // and (pointer provenance) one distributed walk.
    std::map<uint8_t, NetMessage> first;
    engine->network().SetSendTap([&first](const NetMessage& msg) {
      first.emplace(Envelope::TypeOf(msg.payload), msg);
      return Network::TapVerdict{};
    });
    ASSERT_TRUE(engine->InsertLinkFacts().ok());
    ASSERT_TRUE(engine->Run().ok());
    const TopoEdge& cut = topo.edges.front();
    ASSERT_TRUE(
        engine->DeleteFact(cut.from, Link3(cut.from, cut.to, cut.cost)).ok());
    ASSERT_TRUE(engine->Run().ok());
    if (mode == ProvMode::kPointers) {
      std::vector<Tuple> best = engine->TuplesAt(3, "bestPath");
      ASSERT_FALSE(best.empty());
      ASSERT_TRUE(ProvQueryBuilder(*engine)
                      .At(3)
                      .Of(best.back())
                      .WithScope(QueryScope::kDistributed)
                      .Run()
                      .ok());
      ASSERT_EQ(first.size(), 4u);
    } else {
      ASSERT_EQ(first.size(), 2u);
    }
    engine->network().ClearSendTap();
    ASSERT_EQ(engine->security_log().size(), 0u);

    for (const auto& [type, msg] : first) {
      SCOPED_TRACE(MsgKindName(type));
      // Tuple mutants also go to a second node at the same instant, so the
      // wave runs on worker lanes when the executor is parallel.
      std::vector<NodeId> dests = {msg.to};
      if (type == kMsgTuple) {
        NodeId other = (msg.to + 1) % topo.num_nodes;
        if (other == msg.from) other = (other + 1) % topo.num_nodes;
        dests.push_back(other);
      }

      // Torn: every proper prefix of the wire message, sent as it is.
      for (size_t len = 0; len < msg.payload.size(); ++len) {
        Bytes torn(msg.payload.begin(), msg.payload.begin() + len);
        EXPECT_EQ(Deliver(*engine, msg.from, dests, torn), dests.size())
            << "torn at " << len << " of " << msg.payload.size();
      }

      // Re-sealed: the content cut anywhere after its (seq, dest) header,
      // signed again under the sender's key with a fresh sequence number
      // and the original destination. The signature verifies; the cut
      // content must not parse.
      Envelope env = Envelope::Decode(msg.payload).value();
      ByteReader reader(env.content);
      SignedPrefix prefix = GetSignedPrefix(reader, true).value();
      const Bytes body(env.content.begin() + reader.position(),
                       env.content.end());
      const Principal& sender = env.tag->principal;
      size_t tail_len = 0;  // causal ids + body
      for (size_t t = 0; t == 0 || t < tail_len; ++t) {
        prefix.seq = engine->NextSendSeq(sender);
        ByteWriter content;
        const size_t header = PutSignedPrefix(content, prefix, true);
        content.PutRaw(body.data(), body.size());
        tail_len = content.size() - header;
        Bytes cut_content(content.bytes().begin(),
                          content.bytes().begin() + header + t);
        Bytes resealed = Sign(*engine, type, sender, std::move(cut_content));
        EXPECT_EQ(Deliver(*engine, msg.from, dests, resealed), dests.size())
            << "re-sealed, cut " << t << " of " << tail_len
            << " bytes after the header";
      }
    }
  }
}

// Seals a tuple message body as a validly signed kMsgTuple from `from` to
// `to`, with the sender's next sequence number and a fresh causal span.
Bytes SealTuple(Engine& engine, NodeId from, NodeId to, const Bytes& body) {
  const Principal sender = engine.PrincipalOf(from);
  SignedPrefix prefix;
  prefix.seq = engine.NextSendSeq(sender);
  prefix.dest = to;
  const uint64_t span = engine.NewCausalSpan(from);
  prefix.causal = CausalIds{span, span};
  ByteWriter content;
  PutSignedPrefix(content, prefix, true);
  content.PutRaw(body.data(), body.size());
  return Sign(engine, kMsgTuple, sender, std::move(content).Take());
}

// A validly signed `link` forgery from node 1 to node 0 whose provenance
// payload is of kind `kind`, whatever the receiver's mode.
Bytes ForgeLinkWithPayload(Engine& engine, const Tuple& link, uint8_t kind) {
  const Principal sender = engine.PrincipalOf(1);
  ByteWriter body;
  link.Serialize(body);
  body.PutU8(kind);
  if (kind == kProvPayloadCubes) {
    Condense(ProvExpr::Var(engine.registry().Intern(sender))).Serialize(body);
  } else if (kind == kProvPayloadTree) {
    DerivationPtr deriv =
        MakeBaseDerivation(link, 0, sender, engine.network().now(), -1.0);
    deriv = SignDerivation(deriv, engine.authenticator(),
                           engine.options().says_level)
                .value();
    deriv->Serialize(body);
  }
  return SealTuple(engine, 1, 0, body.bytes());
}

TEST(EnvelopeTest, ReceiverAcceptsOnlyItsOwnPayloadKind) {
  const Tuple forged = Link3(0, 2, 7);
  for (ProvMode mode : {ProvMode::kNone, ProvMode::kCondensed,
                        ProvMode::kFull, ProvMode::kPointers}) {
    for (uint8_t kind :
         {kProvPayloadNone, kProvPayloadCubes, kProvPayloadTree}) {
      SCOPED_TRACE(::testing::Message() << ProvModeName(mode) << " receiver, "
                                        << int{kind} << " payload");
      Topology topo = Topology::Line(3);
      auto engine =
          Engine::Create(topo, BestPathSendlogProgram(), HmacOptions(mode))
              .value();
      ASSERT_TRUE(engine->InsertLinkFacts().ok());
      ASSERT_TRUE(engine->Run().ok());
      ASSERT_TRUE(engine->network()
                      .Send(1, 0, ForgeLinkWithPayload(*engine, forged, kind))
                      .ok());
      ASSERT_TRUE(engine->Run().ok());

      std::vector<Tuple> links = engine->TuplesAt(0, "link");
      const bool stored =
          std::find(links.begin(), links.end(), forged) != links.end();
      // Events at the receiver only: a stored forgery flows on, and its
      // derived linkD cubes omit node 0, which node 2's framing check flags.
      std::vector<SecurityEventKind> at_receiver;
      for (const SecurityEvent& ev : engine->security_log().events()) {
        if (ev.node == 0) at_receiver.push_back(ev.kind);
      }
      if (kind == ProvPayloadKind(mode)) {
        EXPECT_TRUE(stored);
        EXPECT_TRUE(at_receiver.empty());
      } else {
        EXPECT_FALSE(stored);
        const std::vector<SecurityEventKind> malformed = {
            SecurityEventKind::kMalformed};
        EXPECT_EQ(at_receiver, malformed);
        EXPECT_EQ(engine->security_log().size(), 1u);
      }
    }
  }
}

TEST(EnvelopeTest, AsserterlessLeafIsAttributedToEachSender) {
  // A full-provenance leaf that names no asserter folds to whoever sent the
  // proof. Two senders ship one rule step each over the same such leaf
  // (one arena node), so the leaf's annotation depends on the message and
  // must never be shared between them.
  Topology topo = Topology::Line(3);
  auto engine = Engine::Create(topo, BestPathSendlogProgram(),
                               HmacOptions(ProvMode::kFull))
                    .value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  const Tuple seed("seed", {Value::Address(1)});
  const std::pair<NodeId, Tuple> sent[] = {{0, Link3(1, 2, 9)},
                                           {2, Link3(1, 0, 9)}};
  for (const auto& [from, link] : sent) {
    DerivationPtr leaf = MakeBaseDerivation(seed, 1, /*asserted_by=*/"",
                                            /*created_at=*/0.0, -1.0);
    DerivationPtr step =
        MakeRuleDerivation(link, "z1", from, engine->PrincipalOf(from),
                           /*created_at=*/0.0, -1.0, {leaf});
    ByteWriter body;
    link.Serialize(body);
    body.PutU8(kProvPayloadTree);
    step->Serialize(body);
    ASSERT_TRUE(engine->network()
                    .Send(from, 1, SealTuple(*engine, from, 1, body.bytes()))
                    .ok());
  }
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->security_log().size(), 0u);

  for (const auto& [from, link] : sent) {
    SCOPED_TRACE(link.ToString());
    std::optional<ProvVar> sender =
        engine->registry().Find(engine->PrincipalOf(from));
    ASSERT_TRUE(sender.has_value());
    Result<ProvExpr> annotation = engine->AnnotationOf(1, link);
    ASSERT_TRUE(annotation.ok()) << annotation.status();
    EXPECT_TRUE(annotation.value().Equals(ProvExpr::Var(*sender)))
        << annotation.value().ToString();
  }
}

TEST(EnvelopeTest, AuthBytesAreSignedHeaderPlusTag) {
  Rng rng(5);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  auto engine = Engine::Create(topo, BestPathSendlogProgram(),
                               HmacOptions(ProvMode::kCondensed))
                    .value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  // Every tuple and retract message of one DeleteFact window, decoded
  // through the codec: its (seq, dest) header and its says tag.
  uint64_t header_and_tag = 0;
  std::map<uint8_t, uint64_t> per_kind;
  engine->network().SetSendTap([&](const NetMessage& msg) {
    Envelope env = Envelope::Decode(msg.payload).value();
    ByteReader reader(env.content);
    SignedPrefix prefix = GetSignedPrefix(reader, true).value();
    ByteWriter header;
    header_and_tag += PutSignedPrefix(header, prefix, true);
    header_and_tag += env.tag->WireSize();
    ++per_kind[env.type];
    return Network::TapVerdict{};
  });
  const RunStats before = engine->cumulative_stats();
  const TopoEdge& cut = topo.edges.front();
  ASSERT_TRUE(
      engine->DeleteFact(cut.from, Link3(cut.from, cut.to, cut.cost)).ok());
  ASSERT_TRUE(engine->Run().ok());
  engine->network().ClearSendTap();
  const RunStats after = engine->cumulative_stats();

  ASSERT_GT(per_kind[kMsgRetract], 0u);
  ASSERT_GT(per_kind[kMsgTuple], 0u);
  EXPECT_EQ(after.auth_bytes - before.auth_bytes, header_and_tag);
}

}  // namespace
}  // namespace provnet
