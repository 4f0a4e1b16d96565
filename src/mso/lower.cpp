#include "mso/lower.hpp"

#include <map>
#include <stdexcept>

namespace dmc::mso {

namespace {

FormulaPtr lower_rec(const FormulaPtr& f, std::map<std::string, Sort>& scope) {
  switch (f->kind) {
    case Kind::True:
    case Kind::False:
    case Kind::Adjacent:
    case Kind::Incident:
    case Kind::Subset:
    case Kind::Disjoint:
    case Kind::Singleton:
    case Kind::EmptySet:
    case Kind::FullSet:
    case Kind::Crossing:
    case Kind::Border:
    case Kind::Label:
      return f;  // kind unchanged; singleton-set semantics coincide
    case Kind::Member:
      return subset(f->a, f->b);
    case Kind::Equal:
      return land(subset(f->a, f->b), subset(f->b, f->a));
    case Kind::Not:
      return lnot(lower_rec(f->left, scope));
    case Kind::And:
      return land(lower_rec(f->left, scope), lower_rec(f->right, scope));
    case Kind::Or:
      return lor(lower_rec(f->left, scope), lower_rec(f->right, scope));
    case Kind::Implies:
      return implies(lower_rec(f->left, scope), lower_rec(f->right, scope));
    case Kind::Iff:
      return iff(lower_rec(f->left, scope), lower_rec(f->right, scope));
    case Kind::Exists:
    case Kind::Forall: {
      const Sort lowered_sort = set_sort_of(f->var_sort);
      const auto prev = scope.find(f->var);
      const bool had = prev != scope.end();
      const Sort old = had ? prev->second : Sort::Vertex;
      scope[f->var] = lowered_sort;
      FormulaPtr body = lower_rec(f->left, scope);
      if (had)
        scope[f->var] = old;
      else
        scope.erase(f->var);
      if (is_individual(f->var_sort)) {
        body = f->kind == Kind::Exists ? land(singleton(f->var), body)
                                       : implies(singleton(f->var), body);
      }
      return f->kind == Kind::Exists ? exists(f->var, lowered_sort, body)
                                     : forall(f->var, lowered_sort, body);
    }
  }
  throw std::logic_error("lower: unknown kind");
}

}  // namespace

FormulaPtr lower(const FormulaPtr& f,
                 const std::vector<std::pair<std::string, Sort>>& free_sorts) {
  for (std::size_t i = 0; i < free_sorts.size(); ++i) {
    const auto& [name, sort] = free_sorts[i];
    if (!is_set(sort))
      throw std::invalid_argument("lower: free variable '" + name +
                                  "' must be set-sorted");
    for (std::size_t j = 0; j < i; ++j)
      if (free_sorts[j].first == name)
        throw std::invalid_argument("lower: free variable '" + name +
                                    "' declared twice");
  }
  // Validate the surface formula first (also infers free variables).
  const auto inferred = check_well_formed(*f, free_sorts);
  for (const auto& [name, sort] : inferred)
    if (!is_set(sort))
      throw std::invalid_argument("lower: free variable '" + name +
                                  "' must be set-sorted (declare it)");
  std::map<std::string, Sort> scope;
  for (const auto& [name, sort] : inferred) scope[name] = sort;
  FormulaPtr out = lower_rec(f, scope);
  check_well_formed(*out, inferred);  // sanity: result remains well-formed
  return out;
}

bool is_lowered(const Formula& f) {
  switch (f.kind) {
    case Kind::Member:
    case Kind::Equal:
      return false;
    case Kind::Not:
      return is_lowered(*f.left);
    case Kind::And:
    case Kind::Or:
    case Kind::Implies:
    case Kind::Iff:
      return is_lowered(*f.left) && is_lowered(*f.right);
    case Kind::Exists:
    case Kind::Forall:
      return is_set(f.var_sort) && is_lowered(*f.left);
    default:
      return true;
  }
}

}  // namespace dmc::mso
