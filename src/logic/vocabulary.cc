#include "src/logic/vocabulary.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>

#include "src/logic/intern.h"

namespace rwl::logic {
namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "rwl vocabulary error: %s\n", message.c_str());
  std::abort();
}

// A symbol's kind as conflict messages name it.
std::string_view Kind(bool predicate, int arity) {
  return predicate ? "predicate" : arity == 0 ? "constant" : "function";
}

std::string Conflict(const std::string& name, std::string_view kind,
                     int arity, std::string_view existing_kind,
                     int existing_arity) {
  std::string error =
      "cannot declare " + std::string(kind) + " '" + name + "'";
  if (kind != existing_kind) {
    return error + ": already a " + std::string(existing_kind);
  }
  return error + " with arity " + std::to_string(arity) + ": already arity " +
         std::to_string(existing_arity);
}

}  // namespace

std::string Vocabulary::PredicateConflict(const std::string& name,
                                          int arity) const {
  if (auto it = predicate_index_.find(name); it != predicate_index_.end()) {
    const int existing = predicates_[it->second].arity;
    return existing == arity ? std::string()
                             : Conflict(name, "predicate", arity,
                                        "predicate", existing);
  }
  auto it = function_index_.find(name);
  if (it == function_index_.end()) return {};
  const int existing = functions_[it->second].arity;
  return Conflict(name, "predicate", arity, Kind(false, existing), existing);
}

std::string Vocabulary::FunctionConflict(const std::string& name,
                                         int arity) const {
  if (auto it = function_index_.find(name); it != function_index_.end()) {
    const int existing = functions_[it->second].arity;
    return existing == arity ? std::string()
                             : Conflict(name, Kind(false, arity), arity,
                                        Kind(false, existing), existing);
  }
  auto it = predicate_index_.find(name);
  if (it == predicate_index_.end()) return {};
  return Conflict(name, Kind(false, arity), arity, "predicate",
                  predicates_[it->second].arity);
}

int Vocabulary::AddPredicate(const std::string& name, int arity,
                             std::string* conflict) {
  auto it = predicate_index_.find(name);
  if (it != predicate_index_.end() &&
      predicates_[it->second].arity == arity) {
    return it->second;
  }
  if (it != predicate_index_.end() || function_index_.count(name) > 0) {
    if (conflict == nullptr) Die(PredicateConflict(name, arity));
    *conflict = PredicateConflict(name, arity);
    return -1;
  }
  PredicateSymbol sym;
  sym.id = static_cast<int>(predicates_.size());
  sym.name = name;
  sym.arity = arity;
  predicates_.push_back(sym);
  predicate_index_[name] = sym.id;
  return sym.id;
}

int Vocabulary::AddFunction(const std::string& name, int arity,
                            std::string* conflict) {
  auto it = function_index_.find(name);
  if (it != function_index_.end() && functions_[it->second].arity == arity) {
    return it->second;
  }
  if (it != function_index_.end() || predicate_index_.count(name) > 0) {
    if (conflict == nullptr) Die(FunctionConflict(name, arity));
    *conflict = FunctionConflict(name, arity);
    return -1;
  }
  FunctionSymbol sym;
  sym.id = static_cast<int>(functions_.size());
  sym.name = name;
  sym.arity = arity;
  functions_.push_back(sym);
  function_index_[name] = sym.id;
  return sym.id;
}

void Vocabulary::Truncate(int num_predicates, int num_functions) {
  while (static_cast<int>(predicates_.size()) > num_predicates) {
    predicate_index_.erase(predicates_.back().name);
    predicates_.pop_back();
  }
  while (static_cast<int>(functions_.size()) > num_functions) {
    function_index_.erase(functions_.back().name);
    functions_.pop_back();
  }
}

std::optional<PredicateSymbol> Vocabulary::FindPredicate(
    const std::string& name) const {
  auto it = predicate_index_.find(name);
  if (it == predicate_index_.end()) return std::nullopt;
  return predicates_[it->second];
}

std::optional<FunctionSymbol> Vocabulary::FindFunction(
    const std::string& name) const {
  auto it = function_index_.find(name);
  if (it == function_index_.end()) return std::nullopt;
  return functions_[it->second];
}

std::vector<FunctionSymbol> Vocabulary::Constants() const {
  std::vector<FunctionSymbol> result;
  for (const auto& f : functions_) {
    if (f.arity == 0) result.push_back(f);
  }
  return result;
}

uint64_t Vocabulary::Fingerprint() const {
  uint64_t h = HashMix(predicates_.size() * 31 + functions_.size());
  for (const auto& p : predicates_) {
    h = HashCombine(h, std::hash<std::string>{}(p.name));
    h = HashCombine(h, static_cast<uint64_t>(p.arity));
  }
  for (const auto& f : functions_) {
    h = HashCombine(h, std::hash<std::string>{}(f.name));
    h = HashCombine(h, static_cast<uint64_t>(f.arity) + 0x80000000ull);
  }
  return h;
}

bool Vocabulary::IsUnaryRelational() const {
  for (const auto& p : predicates_) {
    if (p.arity != 1) return false;
  }
  for (const auto& f : functions_) {
    if (f.arity != 0) return false;
  }
  return true;
}

}  // namespace rwl::logic
