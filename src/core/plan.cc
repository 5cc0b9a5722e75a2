#include "core/plan.h"

#include "util/strings.h"

namespace provnet {

Result<Plan> Plan::Compile(const LocalizedProgram& localized,
                           const std::vector<MaterializeDecl>& decls) {
  Plan plan;
  plan.sendlog_ = localized.sendlog;

  // Materialize declarations first (explicit configuration).
  for (const MaterializeDecl& decl : decls) {
    TableOptions opts;
    opts.default_ttl = decl.ttl_seconds;
    opts.max_size = decl.max_size;
    for (int pos : decl.key_positions) {
      opts.key_columns.push_back(pos - 1);  // 1-based -> 0-based
    }
    plan.table_options_[decl.predicate] = std::move(opts);
  }

  for (const LocalizedRule& lr : localized.rules) {
    CompiledRule cr;
    cr.lr = lr;
    const Rule& rule = cr.lr.rule;

    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& lit = rule.body[i];
      if (lit.kind != LiteralKind::kAtom) continue;
      for (const Term& arg : lit.atom.args) {
        if (arg.kind == TermKind::kFunction ||
            arg.kind == TermKind::kAggregate) {
          return UnimplementedError(
              "body atom " + lit.atom.predicate +
              " uses a computed argument; bind it with ':=' first");
        }
      }
      cr.atom_indices.push_back(static_cast<int>(i));
    }
    if (cr.atom_indices.empty()) {
      return InvalidArgumentError("rule " + rule.head.predicate +
                                  " has no body atoms; not event-driven");
    }
    PROVNET_ASSIGN_OR_RETURN(cr.prog, CompileRuleProgram(cr.lr));

    // Head aggregate -> aggregate table with group-column key.
    int agg_pos = -1;
    AggKind agg = AggKind::kNone;
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (rule.head.args[i].kind == TermKind::kAggregate) {
        agg_pos = static_cast<int>(i);
        agg = rule.head.args[i].agg;
      }
    }
    if (agg != AggKind::kNone) {
      TableOptions& opts = plan.table_options_[rule.head.predicate];
      if (opts.agg != AggKind::kNone &&
          (opts.agg != agg || opts.agg_column != agg_pos)) {
        return InvalidArgumentError("predicate " + rule.head.predicate +
                                    " has conflicting aggregate heads");
      }
      opts.agg = agg;
      opts.agg_column = agg_pos;
      opts.key_columns.clear();
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (static_cast<int>(i) != agg_pos) {
          opts.key_columns.push_back(static_cast<int>(i));
        }
      }
    }

    int rule_index = static_cast<int>(plan.rules_.size());
    for (int body_index : cr.atom_indices) {
      const std::string& pred =
          rule.body[static_cast<size_t>(body_index)].atom.predicate;
      plan.strands_[pred].push_back(Strand{rule_index, body_index});
    }
    plan.rules_.push_back(std::move(cr));
  }
  return plan;
}

const std::vector<Strand>* Plan::StrandsFor(const std::string& pred) const {
  auto it = strands_.find(pred);
  return it == strands_.end() ? nullptr : &it->second;
}

TableOptions Plan::OptionsFor(const std::string& pred) const {
  auto it = table_options_.find(pred);
  return it != table_options_.end() ? it->second : TableOptions{};
}

std::string Plan::ToString() const {
  std::string out = sendlog_ ? "plan (SeNDlog)\n" : "plan (NDlog)\n";
  for (const CompiledRule& cr : rules_) {
    out += "  " + cr.lr.ToString() + "\n";
  }
  for (const auto& [pred, strands] : strands_) {
    out += "  delta " + pred + " -> " + std::to_string(strands.size()) +
           " strand(s)\n";
  }
  return out;
}

}  // namespace provnet
