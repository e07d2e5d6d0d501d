// Vocabulary: the finite first-order signature Φ of Section 4.1.
//
// A vocabulary registers predicate symbols (with arity), function symbols
// (with arity; arity-0 functions are constants) and hands out stable integer
// ids.  Worlds, engines and the parser all resolve symbols through a
// Vocabulary.
#ifndef RWL_LOGIC_VOCABULARY_H_
#define RWL_LOGIC_VOCABULARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rwl::logic {

struct PredicateSymbol {
  int id = -1;
  std::string name;
  int arity = 1;
};

struct FunctionSymbol {
  int id = -1;
  std::string name;
  int arity = 0;  // 0 == constant
};

// A mutable symbol table.  Symbols are identified by name; registering the
// same name twice with the same arity is idempotent, with a different arity
// or as the other kind it is an error.
class Vocabulary {
 public:
  Vocabulary() = default;

  // Registers (or finds) a predicate symbol and returns its id.  On a
  // conflict (see PredicateConflict) it returns -1 with the error in
  // *conflict, or terminates the program when `conflict` is null: callers
  // holding untrusted input pass one (logic::TryRegisterSymbols) or check
  // first (logic::SymbolConflict).
  int AddPredicate(const std::string& name, int arity,
                   std::string* conflict = nullptr);

  // Registers (or finds) a function symbol; arity 0 declares a constant.
  // Conflicts as for AddPredicate (see FunctionConflict).
  int AddFunction(const std::string& name, int arity,
                  std::string* conflict = nullptr);
  int AddConstant(const std::string& name) { return AddFunction(name, 0); }

  // Drops every symbol registered since the vocabulary held
  // `num_predicates` predicates and `num_functions` functions, undoing a
  // registration that stopped at a conflict.
  void Truncate(int num_predicates, int num_functions);

  // Empty when the symbol may be registered: it is new, or already
  // declared as the same kind with the same arity.  Otherwise the error,
  // e.g. "cannot declare constant 'Hep': already a predicate" or
  // "cannot declare predicate 'Hep' with arity 2: already arity 1".
  std::string PredicateConflict(const std::string& name, int arity) const;
  std::string FunctionConflict(const std::string& name, int arity) const;

  std::optional<PredicateSymbol> FindPredicate(const std::string& name) const;
  std::optional<FunctionSymbol> FindFunction(const std::string& name) const;

  const std::vector<PredicateSymbol>& predicates() const { return predicates_; }
  const std::vector<FunctionSymbol>& functions() const { return functions_; }

  // Constants in declaration order (the arity-0 functions).
  std::vector<FunctionSymbol> Constants() const;

  // True when every predicate is unary and every function is a constant:
  // the fragment covered by the profile and maximum-entropy engines
  // (Section 6 of the paper).
  bool IsUnaryRelational() const;

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  int num_functions() const { return static_cast<int>(functions_.size()); }

  // Order-sensitive structural hash of the signature (names, arities, id
  // assignment).  Two vocabularies with equal fingerprints resolve every
  // symbol to the same id, so derived state keyed on symbol ids — compiled
  // programs, world tables — is interchangeable between them.  Used by the
  // QueryContext version salt and the service catalog's cache adoption.
  uint64_t Fingerprint() const;

 private:
  std::vector<PredicateSymbol> predicates_;
  std::vector<FunctionSymbol> functions_;
  std::unordered_map<std::string, int> predicate_index_;
  std::unordered_map<std::string, int> function_index_;
};

}  // namespace rwl::logic

#endif  // RWL_LOGIC_VOCABULARY_H_
