// Provenance-aware incremental deletion (see delta.h for the algorithm).
// Engine member functions live here, next to the state they drive, the same
// way query/wire.cc hosts the distributed-provenance query path.

#include "dynamics/delta.h"

#include <algorithm>

#include "core/engine.h"
#include "provenance/store.h"
#include "util/hash.h"
#include "util/logging.h"

namespace provnet {

namespace {
uint64_t RederiveKey(NodeId node, const Tuple& tuple, bool group_only) {
  uint64_t h = DigestOf(tuple);
  h = HashCombine(h, static_cast<uint64_t>(node));
  return HashCombine(h, group_only ? 1u : 2u);
}
}  // namespace

bool Engine::AnnotationsComplete() const {
  return options_.prov_mode == ProvMode::kCondensed ||
         options_.prov_mode == ProvMode::kFull;
}

void Engine::NoteKilledBase(const Tuple& tuple) {
  if (!AnnotationsComplete() || options_.prov_grain != ProvGrain::kTuple) {
    return;
  }
  std::optional<ProvVar> v = registry_.Find(tuple.ToString());
  if (v.has_value()) dynamics_->killed.insert(*v);
}

void Engine::EnqueueRetraction(NodeId node, StoredTuple entry, bool rederive,
                               bool rederive_group) {
  dynamics_->overlay[node][entry.tuple.predicate()].push_back(entry);
  if (rederive) {
    uint64_t key = RederiveKey(node, entry.tuple, rederive_group);
    if (dynamics_->rederive_seen.insert(key).second) {
      dynamics_->rederive.push_back(
          DeltaState::RederiveItem{node, entry.tuple, rederive_group});
    }
  }
  // Capture the enqueuing context: a retraction cascade keeps the trace of
  // the message (or external call) that started it.
  dynamics_->queue.push_back(
      DeltaState::Retraction{node, std::move(entry), exec().causal});
}

Status Engine::DeleteFact(NodeId node, const Tuple& tuple) {
  if (node >= contexts_.size()) {
    return InvalidArgumentError("DeleteFact: unknown node");
  }
  // External deletion: the cascade roots a fresh causal trace.
  exec().causal = CausalIds{};
  Table* table = contexts_[node]->FindTableMutable(tuple.predicate());
  std::optional<StoredTuple> removed =
      table == nullptr ? std::nullopt : table->Remove(tuple);
  if (!removed.has_value()) {
    return NotFoundError("DeleteFact: tuple not stored: " + tuple.ToString());
  }
  if (removed->origin == TupleOrigin::kBase) {
    NoteKilledBase(tuple);
    // Un-journal: an externally deleted base fact must not be resurrected
    // by RestartNode's stable-storage replay.
    if (node < journal_digests_.size() &&
        journal_digests_[node].erase(tuple.Hash()) != 0) {
      auto& log = base_fact_journal_[node];
      const uint64_t digest = tuple.Hash();
      log.erase(std::remove_if(log.begin(), log.end(),
                               [digest](const std::pair<Tuple, double>& e) {
                                 return e.first.Hash() == digest;
                               }),
                log.end());
    }
  }
  // An external retraction is authoritative: the fact itself must not be
  // resurrected by the re-derivation phase (its consequences may be).
  EnqueueRetraction(node, std::move(*removed), /*rederive=*/false,
                    /*rederive_group=*/false);
  return OkStatus();
}

Status Engine::RetractPrincipal(const Principal& principal) {
  // External revocation: the cascade roots a fresh causal trace.
  exec().causal = CausalIds{};
  // At principal grain one substitution covers every assertion; at tuple
  // grain each of the principal's base tuples contributes its own variable
  // (collected below as they are removed).
  if (AnnotationsComplete() &&
      options_.prov_grain == ProvGrain::kPrincipal) {
    std::optional<ProvVar> v = registry_.Find(principal);
    if (v.has_value()) dynamics_->killed.insert(*v);
  }

  for (auto& ctx : contexts_) {
    for (Table* table : ctx->AllTables()) {
      const bool count_agg = table->options().agg == AggKind::kCount;
      // Aggregate *and* keyed rows re-derive as key groups: a removed row
      // may have replaced a surviving alternative under its primary key.
      const bool group_rederive = table->options().agg != AggKind::kNone ||
                                  !table->options().key_columns.empty();
      // Classify before mutating: Scan pointers die on removal.
      std::vector<Tuple> revoked;    // the principal's own assertions
      std::vector<Tuple> dependent;  // annotation mentions a killed var
      for (const StoredTuple* e : table->Scan()) {
        if (e->asserted_by == principal) {
          revoked.push_back(e->tuple);
        } else if (!dynamics_->killed.empty() &&
                   e->prov.DependsOnAny(dynamics_->killed)) {
          dependent.push_back(e->tuple);
        }
      }
      for (const Tuple& t : revoked) {
        std::optional<StoredTuple> removed = table->Remove(t);
        if (!removed.has_value()) continue;
        if (removed->origin == TupleOrigin::kBase) NoteKilledBase(t);
        // rederive: a revoked copy of a tuple someone else can also derive
        // comes back through an untainted principal.
        EnqueueRetraction(ctx->id(), std::move(*removed), /*rederive=*/true,
                          /*rederive_group=*/group_rederive);
      }
      for (const Tuple& t : dependent) {
        StoredTuple* e = table->FindMutable(t);
        if (e == nullptr) continue;
        // COUNT aggregates cannot be pruned by restriction (the count must
        // drop when witnesses die even if some survive): always recompute.
        ProvExpr restricted =
            count_agg ? ProvExpr::Zero() : e->prov.Restrict(dynamics_->killed);
        if (restricted.IsZero()) {
          std::optional<StoredTuple> removed = table->Remove(t);
          if (removed.has_value()) {
            EnqueueRetraction(ctx->id(), std::move(*removed),
                              /*rederive=*/true,
                              /*rederive_group=*/group_rederive);
          }
        } else {
          e->prov = std::move(restricted);
        }
      }
    }
  }
  return OkStatus();
}

Status Engine::ProcessRetraction(NodeId node, const StoredTuple& entry) {
  // One deletion-delta cascade step (sampled: cascades can be large).
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = node;
    ev.kind = "retract_cascade";
    ev.attrs = {{"pred", entry.tuple.predicate()}};
    TraceSampled(std::move(ev));
  }

  // The tuple's live provenance dies with it.
  contexts_[node]->online_store().Remove(DigestOf(entry.tuple));

  const std::vector<Strand>* strands =
      plan_.StrandsFor(entry.tuple.predicate());
  if (strands == nullptr) return OkStatus();
  for (const Strand& strand : *strands) {
    const CompiledRule& cr = plan_.rules()[strand.rule_index];
    PROVNET_RETURN_IF_ERROR(
        FireDeleteStrand(node, cr, strand.body_index, entry));
  }
  return OkStatus();
}

Status Engine::FireDeleteStrand(NodeId node_id, const CompiledRule& cr,
                                int delta_index,
                                const StoredTuple& delta_entry) {
  const RuleProgram& prog = cr.prog;
  Frame& frame = exec().frame;
  frame.Reset(prog.num_slots);
  frame.BindOrCheck(prog.local_slot, Value::Address(node_id));

  const SlotLiteral& delta_lit = prog.body[static_cast<size_t>(delta_index)];
  if (!MatchTuple(delta_lit, delta_entry.tuple, frame)) return OkStatus();
  if (delta_lit.says.has_value() &&
      !SaysMatches(*delta_lit.says, delta_entry, frame)) {
    return OkStatus();
  }

  // Delete-mode firing of the same strand (DRed over-deletion).
  ++exec().cells.rule(RuleIndex(cr), RuleCtr::kFirings)->value;

  std::vector<const StoredTuple*> used;
  used.reserve(prog.body.size());
  used.push_back(&delta_entry);
  PROVNET_RETURN_IF_ERROR(DynJoin(
      node_id, cr, 0, delta_index, /*use_overlay=*/true, frame, used,
      [this, node_id, &cr](Frame& f, const std::vector<const StoredTuple*>&) {
        return OverDeleteHead(node_id, cr, f);
      }));
  return DrainPending();
}

Status Engine::DynJoin(NodeId node_id, const CompiledRule& cr,
                       size_t literal_pos, int delta_index, bool use_overlay,
                       Frame& frame, std::vector<const StoredTuple*>& used,
                       const EmitFn& emit) {
  const RuleProgram& prog = cr.prog;
  if (literal_pos == prog.body.size()) return emit(frame, used);
  if (static_cast<int>(literal_pos) == delta_index) {
    return DynJoin(node_id, cr, literal_pos + 1, delta_index, use_overlay,
                   frame, used, emit);
  }
  const SlotLiteral& lit = prog.body[literal_pos];
  switch (lit.kind) {
    case LiteralKind::kCondition: {
      PROVNET_ASSIGN_OR_RETURN(bool pass, EvalSlotCondition(lit.expr, frame));
      if (!pass) return OkStatus();
      return DynJoin(node_id, cr, literal_pos + 1, delta_index, use_overlay,
                     frame, used, emit);
    }
    case LiteralKind::kAssign: {
      PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotExpr(lit.expr, frame));
      size_t mark = frame.Mark();
      if (!frame.BindOrCheck(lit.assign_slot, std::move(v))) {
        return OkStatus();
      }
      Status s = DynJoin(node_id, cr, literal_pos + 1, delta_index,
                         use_overlay, frame, used, emit);
      frame.UndoTo(mark);
      return s;
    }
    case LiteralKind::kAtom: {
      // Zero-copy scan: candidates are visited as `const StoredTuple*` into
      // live storage. Emits defer their table mutations (the lane's pending
      // buffer), so the rows backing these pointers cannot move or die
      // mid-scan. The per-rule candidate cell is resolved once per literal,
      // outside the scan — the inner loop pays one pointer increment.
      obs::Counter* candidates =
          exec().cells.rule(RuleIndex(cr), RuleCtr::kCandidates);
      auto try_candidate = [&](const StoredTuple& candidate) -> Status {
        ++candidates->value;
        size_t mark = frame.Mark();
        if (MatchTuple(lit, candidate.tuple, frame) &&
            (!lit.says.has_value() ||
             SaysMatches(*lit.says, candidate, frame))) {
          used.push_back(&candidate);
          Status s = DynJoin(node_id, cr, literal_pos + 1, delta_index,
                             use_overlay, frame, used, emit);
          used.pop_back();
          PROVNET_RETURN_IF_ERROR(s);
        }
        frame.UndoTo(mark);
        return OkStatus();
      };

      NodeContext& ctx = *contexts_[node_id];
      Table* table = ctx.FindTableMutable(lit.predicate);
      if (table != nullptr) {
        // Index columns: every constant or currently-bound column,
        // precomputed as candidates at plan time and gathered here in
        // column order. The composite index serves the whole conjunction,
        // so candidates shrink to (near-)matches only.
        constexpr size_t kMaxEqs = 16;
        Table::ColumnEq eqs[kMaxEqs];
        size_t neq = 0;
        for (const IndexCand& cand : lit.index_cands) {
          if (neq == kMaxEqs || cand.col >= 64) break;
          if (cand.is_const) {
            eqs[neq++] = Table::ColumnEq{cand.col, &cand.constant};
          } else if (frame.IsBound(cand.slot)) {
            eqs[neq++] = Table::ColumnEq{cand.col, &frame.Get(cand.slot)};
          }
        }
        PROVNET_RETURN_IF_ERROR(
            neq > 0 ? table->ForEachByColumns(eqs, neq, try_candidate)
                    : table->ForEach(try_candidate));
      }
      if (use_overlay) {
        // The pre-deletion database: tuples already deleted this epoch are
        // still join partners for over-deletion.
        const std::vector<StoredTuple>* deleted =
            dynamics_->OverlayFor(node_id, lit.predicate);
        if (deleted != nullptr) {
          for (const StoredTuple& candidate : *deleted) {
            PROVNET_RETURN_IF_ERROR(try_candidate(candidate));
          }
        }
      }
      return OkStatus();
    }
  }
  return InternalError("unreachable literal kind");
}

Status Engine::OverDeleteHead(NodeId node_id, const CompiledRule& cr,
                              const Frame& frame) {
  PROVNET_ASSIGN_OR_RETURN(Tuple head, BuildHeadTuple(cr.prog, frame));
  NodeId dest = node_id;
  if (cr.prog.send_to.has_value()) {
    PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotTerm(*cr.prog.send_to, frame));
    if (v.kind() != ValueKind::kAddress) {
      return InvalidArgumentError("retract: destination is not an address: " +
                                  v.ToString());
    }
    dest = v.AsAddress();
    if (dest >= contexts_.size()) {
      return InvalidArgumentError("retract: destination node out of range");
    }
  }
  // Defer: removals (and the annotation restriction they consult) must not
  // run while the delete-mode join is scanning the same tables.
  PendingAction action;
  action.kind = dest == node_id ? PendingAction::Kind::kOverDelete
                                : PendingAction::Kind::kSendRetract;
  action.node = node_id;
  action.dest = dest;
  action.head = std::move(head);
  exec().pending.push_back(std::move(action));
  return OkStatus();
}

Status Engine::OverDeleteAt(NodeId node_id, const Tuple& tuple) {
  NodeContext& ctx = *contexts_[node_id];
  Table* table = ctx.FindTableMutable(tuple.predicate());
  if (table == nullptr) return OkStatus();
  const TableOptions& topt = table->options();

  if (topt.agg != AggKind::kNone) {
    const StoredTuple* group = table->FindGroup(tuple);
    if (group == nullptr) return OkStatus();
    size_t agg_col = static_cast<size_t>(topt.agg_column);
    // MIN/MAX: only a derivation of the current extremum can invalidate the
    // group. COUNT: any dead witness changes the count, and the group is
    // re-derived to recount the survivors.
    bool contributes =
        topt.agg == AggKind::kCount ||
        (agg_col < tuple.arity() &&
         group->tuple.arg(agg_col) == tuple.arg(agg_col));
    if (!contributes) return OkStatus();
    if (topt.agg != AggKind::kCount && !dynamics_->killed.empty() &&
        !group->prov.IsZero()) {
      // An equal-extremum derivation that avoids every killed base keeps
      // the group's value valid.
      ProvExpr restricted = group->prov.Restrict(dynamics_->killed);
      if (!restricted.IsZero()) {
        table->FindMutable(group->tuple)->prov = std::move(restricted);
        return OkStatus();
      }
    }
    std::optional<StoredTuple> removed = table->Remove(group->tuple);
    if (removed.has_value()) {
      EnqueueRetraction(node_id, std::move(*removed), /*rederive=*/true,
                        /*rederive_group=*/true);
    }
    return OkStatus();
  }

  const StoredTuple* current = table->Find(tuple);
  if (current == nullptr) return OkStatus();
  if (!dynamics_->killed.empty() && !current->prov.IsZero()) {
    ProvExpr restricted = current->prov.Restrict(dynamics_->killed);
    if (!restricted.IsZero()) {
      // Independent derivation survives: keep the tuple, adopt the pruned
      // annotation, stop the cascade — no re-derivation needed.
      table->FindMutable(tuple)->prov = std::move(restricted);
      return OkStatus();
    }
  }
  std::optional<StoredTuple> removed = table->Remove(tuple);
  if (removed.has_value()) {
    // Keyed tables re-derive the *key group*, not the exact tuple: the dead
    // row may have replaced a differently-valued alternative (P2 update
    // semantics), and only a key-constrained re-derivation can bring that
    // alternative back — the same reroute logic aggregate groups use.
    EnqueueRetraction(node_id, std::move(*removed), /*rederive=*/true,
                      /*rederive_group=*/!topt.key_columns.empty());
  }
  return OkStatus();
}

Status Engine::SendRetract(NodeId from, NodeId to, const Tuple& tuple) {
  // Body: tuple + the epoch's killed variables, so the receiver can
  // restrict its own (merged) annotation. The says tag covers these bytes —
  // forged retractions from untrusted senders are dropped on verify, and
  // replayed ones by the anti-replay header. The message is a child span of
  // the cascade that produced it, so distributed deletions stitch into one
  // trace.
  ByteWriter body;
  tuple.Serialize(body);
  std::vector<ProvVar> killed(dynamics_->killed.begin(),
                              dynamics_->killed.end());
  std::sort(killed.begin(), killed.end());
  body.PutVarint(killed.size());
  for (ProvVar v : killed) body.PutU32(v);
  return SealAndShip(from, to, kMsgRetract, body.bytes(), 0,
                     tuple.predicate());
}

Status Engine::HandleRetractMessage(NodeId to, NodeId from,
                                    const Envelope& env, ByteReader& body) {
  // The dispatcher verified the envelope and adopted the sender's causal
  // context: the local over-deletion (and any further kMsgRetract hops)
  // continues the originating trace.
  PROVNET_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(body));
  PROVNET_ASSIGN_OR_RETURN(uint64_t killed_count, body.GetVarint());
  if (killed_count > body.remaining()) {
    return InvalidArgumentError("retract: bad killed-variable count");
  }

  // Parse the killed-variable payload in full before touching any state, so
  // a truncated message cannot leave a half-merged epoch set behind.
  std::vector<ProvVar> killed;
  killed.reserve(static_cast<size_t>(killed_count));
  for (uint64_t i = 0; i < killed_count; ++i) {
    PROVNET_ASSIGN_OR_RETURN(ProvVar v, body.GetU32());
    killed.push_back(v);
  }

  // Retraction authorization (closes the PR 1 follow-up): in an
  // authenticated deployment, a kMsgRetract is honored only for tuples the
  // speaker asserted (or co-asserted), tuples whose provenance depends on
  // the speaker, or when the speaker holds an operator capability. A
  // retraction for an absent tuple is an idempotent no-op — and its killed
  // variables are NOT merged, so a hostile retractor cannot poison the
  // epoch's restriction set by naming tuples that do not exist.
  const StoredTuple* stored = nullptr;
  {
    const Table* table = contexts_[to]->FindTable(tuple.predicate());
    if (table != nullptr) {
      stored = table->Find(tuple);
      if (stored == nullptr && table->options().agg != AggKind::kNone) {
        // Aggregate heads travel as *candidates* (aggregate column =
        // contributing value); the stored row holds the aggregated value,
        // so authorization must consult the group row.
        stored = table->FindGroup(tuple);
      }
    }
  }
  if (options_.authenticate) {
    if (stored == nullptr) return OkStatus();
    const Principal& claimed =
        env.tag.has_value() ? env.tag->principal : Principal();
    if (!AuthorizedRetractor(to, claimed, *stored)) {
      ++cells_[Ctr::kRetractsRejected]->value;
      RecordSecurityEvent(SecurityEventKind::kUnauthorizedRetract, to, from,
                          claimed, tuple.ToString());
      return OkStatus();
    }
    // Even an authorized retraction may only kill variables the target's
    // own annotation depends on: the restriction this retraction is
    // entitled to. Anything else would let one trivially-authorized
    // message poison the epoch-global restriction set that prunes
    // *unrelated* tuples' alternatives.
    std::vector<ProvVar> relevant;
    for (ProvVar v : killed) {
      if (!stored->prov.IsZero() && stored->prov.DependsOnAny({v})) {
        relevant.push_back(v);
      }
    }
    killed.swap(relevant);
  }

  for (ProvVar v : killed) dynamics_->killed.insert(v);
  return OverDeleteAt(to, tuple);
}

Status Engine::RunRederivePass() {
  std::vector<DeltaState::RederiveItem> items;
  items.swap(dynamics_->rederive);
  for (const DeltaState::RederiveItem& item : items) {
    PROVNET_RETURN_IF_ERROR(
        RederiveTuple(item.node, item.tuple, item.group_only));
  }
  return OkStatus();
}

std::vector<NodeId> Engine::CandidateSites(const CompiledRule& cr) const {
  // A node can only execute the rule if it stores every body-atom
  // predicate; intersect the predicate->site index (grow-only, hence a
  // sound superset of current support) instead of scanning all nodes.
  std::vector<NodeId> sites;
  const std::set<NodeId>* smallest = nullptr;
  std::vector<const std::set<NodeId>*> others;
  for (const SlotLiteral& lit : cr.prog.body) {
    if (lit.kind != LiteralKind::kAtom) continue;
    auto it = pred_sites_.find(lit.predicate);
    if (it == pred_sites_.end()) return sites;  // never stored anywhere
    if (smallest == nullptr || it->second.size() < smallest->size()) {
      if (smallest != nullptr) others.push_back(smallest);
      smallest = &it->second;
    } else {
      others.push_back(&it->second);
    }
  }
  if (smallest == nullptr) return sites;
  for (NodeId site : *smallest) {
    bool everywhere = true;
    for (const std::set<NodeId>* s : others) {
      if (s->count(site) == 0) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) sites.push_back(site);
  }
  return sites;  // std::set iteration => already in ascending node order
}

Status Engine::RederiveTuple(NodeId node, const Tuple& tuple,
                             bool group_only) {
  // Aggregate-group re-derivation constrains only the group columns and
  // lets body evaluation propose fresh contributions; the aggregate table
  // re-selects the extremum.
  std::vector<int> positions;
  if (group_only) {
    positions = plan_.OptionsFor(tuple.predicate()).key_columns;
  }
  const bool exact = !group_only || positions.empty();

  for (const CompiledRule& cr : plan_.rules()) {
    Frame& frame = exec().frame;
    frame.Reset(cr.prog.num_slots);
    if (!MatchHead(cr.prog, tuple, frame, positions)) continue;

    // Executing nodes: the head may pin the rule's local variable (e.g. a
    // rule that stores where it runs); otherwise any node storing the
    // rule's body predicates could hold the supporting tuples.
    std::vector<NodeId> sites;
    if (frame.IsBound(cr.prog.local_slot)) {
      const Value& local = frame.Get(cr.prog.local_slot);
      if (local.kind() != ValueKind::kAddress) continue;
      NodeId m = local.AsAddress();
      if (m >= contexts_.size()) continue;
      sites.push_back(m);
    } else {
      sites = CandidateSites(cr);
    }

    for (NodeId site : sites) {
      // Seed the frame with the head-pattern bindings (each site's join
      // and drain reuse the lane's frame), then pin the executing site.
      frame.Reset(cr.prog.num_slots);
      MatchHead(cr.prog, tuple, frame, positions);
      if (!frame.BindOrCheck(cr.prog.local_slot, Value::Address(site))) {
        continue;
      }
      std::vector<const StoredTuple*> used;
      auto emit = [this, &cr, &tuple, &positions, exact, node, site](
                      Frame& f,
                      const std::vector<const StoredTuple*>& u) -> Status {
        PROVNET_ASSIGN_OR_RETURN(Tuple head, BuildHeadTuple(cr.prog, f));
        NodeId dest = site;
        if (cr.prog.send_to.has_value()) {
          PROVNET_ASSIGN_OR_RETURN(Value v,
                                   EvalSlotTerm(*cr.prog.send_to, f));
          if (v.kind() != ValueKind::kAddress) return OkStatus();
          dest = v.AsAddress();
        }
        if (dest != node) return OkStatus();
        if (exact) {
          if (!(head == tuple)) return OkStatus();
        } else {
          for (int p : positions) {
            if (static_cast<size_t>(p) >= head.arity() ||
                !(head.arg(static_cast<size_t>(p)) ==
                  tuple.arg(static_cast<size_t>(p)))) {
              return OkStatus();
            }
          }
        }
        ++cells_[Ctr::kRederivations]->value;
        // The normal head path: annotation product, signing, shipping —
        // restored tuples are indistinguishable from first derivations.
        return EmitHead(site, cr, f, u);
      };
      PROVNET_RETURN_IF_ERROR(DynJoin(site, cr, 0, /*delta_index=*/-1,
                                      /*use_overlay=*/false, frame, used,
                                      emit));
      PROVNET_RETURN_IF_ERROR(DrainPending());
    }
  }
  return OkStatus();
}

}  // namespace provnet
