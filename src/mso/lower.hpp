// Lowering to set normal form.
//
// The BPT type engine works with set variables only. Lowering replaces every
// individual quantifier by a set quantifier guarded by sing(), rewrites
// 'in' to sub(), and splits set equality into two sub() atomics:
//
//   exists vertex x. phi   ==>  exists vset x. sing(x) & phi'
//   forall vertex x. phi   ==>  forall vset x. sing(x) -> phi'
//   a in B                 ==>  sub(a, B)
//   A = B                  ==>  sub(A, B) & sub(B, A)
//
// The remaining atomics (adj, inc, label, ...) have identical semantics on
// singleton sets, so their kinds are unchanged. Quantifier rank is preserved.
//
// Free variables of the input must already be set-sorted (the engine's
// optimization/counting interface passes vertex-set or edge-set variables).
#pragma once

#include "mso/ast.hpp"

namespace dmc::mso {

/// Lowers `f`; `free_sorts` declares the sorts of free variables (must all
/// be set sorts, each name at most once). Throws std::invalid_argument if a
/// free variable is declared twice, if the result would retain an
/// individual variable, or if `f` is ill-formed.
FormulaPtr lower(const FormulaPtr& f,
                 const std::vector<std::pair<std::string, Sort>>& free_sorts = {});

/// True iff `f` is already in set normal form (all variables set-sorted,
/// no Member/Equal kinds).
bool is_lowered(const Formula& f);

}  // namespace dmc::mso
