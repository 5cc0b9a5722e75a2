// Compiles a localized program into the event-driven execution plan used by
// the engine: one strand per (rule, body-atom position), triggered when a
// tuple of that predicate arrives (P2's pipelined semi-naive evaluation).
#ifndef PROVNET_CORE_PLAN_H_
#define PROVNET_CORE_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/slots.h"
#include "core/table.h"
#include "datalog/localize.h"
#include "util/status.h"

namespace provnet {

struct CompiledRule {
  LocalizedRule lr;
  // Indices of kAtom literals within lr.rule.body.
  std::vector<int> atom_indices;
  // Slot program: variables numbered into a dense frame, literal
  // unification pre-resolved per column, builtins interned (core/slots.h).
  // The engine's join core runs this, never the AST.
  RuleProgram prog;
};

// A delta strand: when predicate P gets a new tuple, rule `rule_index` fires
// with the new tuple bound at body literal `body_index`.
struct Strand {
  int rule_index = 0;
  int body_index = 0;
};

class Plan {
 public:
  // Compiles rules and table specifications. Materialize declarations set
  // keys/TTLs; aggregate heads force group-column keys. Body atoms must use
  // only variable/constant arguments (function terms belong in assignments).
  static Result<Plan> Compile(const LocalizedProgram& localized,
                              const std::vector<MaterializeDecl>& decls);

  bool sendlog() const { return sendlog_; }
  const std::vector<CompiledRule>& rules() const { return rules_; }

  // Strands triggered by a new tuple of `pred` (nullptr if none).
  const std::vector<Strand>* StrandsFor(const std::string& pred) const;

  // Table options for `pred` (default options if never declared/derived).
  TableOptions OptionsFor(const std::string& pred) const;

  std::string ToString() const;

 private:
  bool sendlog_ = false;
  std::vector<CompiledRule> rules_;
  std::unordered_map<std::string, std::vector<Strand>> strands_;
  std::unordered_map<std::string, TableOptions> table_options_;
};

}  // namespace provnet

#endif  // PROVNET_CORE_PLAN_H_
