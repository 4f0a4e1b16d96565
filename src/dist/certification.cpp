#include "dist/certification.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

#include "bpt/tables.hpp"
#include "congest/network.hpp"
#include "dist/local.hpp"
#include "graph/algorithms.hpp"
#include "mso/lower.hpp"
#include "td/elimination_forest.hpp"

namespace dmc::dist {

namespace {

/// Labeled-graph support: certificates carry the label bits of the bag
/// members / bag edges; stored in path order inside MsoCertificate via two
/// side arrays kept in the certification object. To keep the wire format
/// simple we fold them into the certificate struct lazily here.
struct LabelArrays {
  std::vector<std::uint32_t> vlabels;  // per path member (path order)
  std::vector<std::uint32_t> elabels;  // per set bit of bag_adj (pair order)
};

/// Builds the LocalBag view a node's verifier uses, from *claimed* data.
LocalBag bag_from_claim(const std::vector<VertexId>& path,
                        std::uint64_t bag_adj, const LabelArrays& labels) {
  const int tau = static_cast<int>(path.size());
  LocalBag bag;
  // order-preserving sort of path -> bag order
  std::vector<int> order(tau);
  for (int i = 0; i < tau; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return path[a] < path[b]; });
  std::vector<int> pos_in_bag(tau);
  for (int k = 0; k < tau; ++k) {
    pos_in_bag[order[k]] = k;
    bag.bag.push_back(path[order[k]]);
    bag.weights.push_back(1);
    bag.vlabel_bits.push_back(
        order[k] < static_cast<int>(labels.vlabels.size())
            ? labels.vlabels[order[k]]
            : 0);
  }
  int edge_ordinal = 0;
  for (int i = 0; i < tau; ++i) {
    for (int j = i + 1; j < tau; ++j) {
      if (!((bag_adj >> bpt::pair_index(i, j, tau)) & 1)) continue;
      LocalBag::BagEdge e;
      e.i = std::min(pos_in_bag[i], pos_in_bag[j]);
      e.j = std::max(pos_in_bag[i], pos_in_bag[j]);
      e.weight = 1;
      e.elabel_bits = edge_ordinal < static_cast<int>(labels.elabels.size())
                          ? labels.elabels[edge_ordinal]
                          : 0;
      ++edge_ordinal;
      bag.edges.push_back(e);
    }
  }
  std::sort(bag.edges.begin(), bag.edges.end(),
            [](const LocalBag::BagEdge& a, const LocalBag::BagEdge& b) {
              return std::tie(a.i, a.j) < std::tie(b.i, b.j);
            });
  return bag;
}

LabelArrays labels_for(const Graph& g, const std::vector<VertexId>& path,
                       std::uint64_t bag_adj,
                       const std::vector<std::string>& vnames,
                       const std::vector<std::string>& enames) {
  LabelArrays out;
  const int tau = static_cast<int>(path.size());
  for (VertexId v : path)
    out.vlabels.push_back(g.vertex_label_bits(vnames, v));
  for (int i = 0; i < tau; ++i)
    for (int j = i + 1; j < tau; ++j) {
      if (!((bag_adj >> bpt::pair_index(i, j, tau)) & 1)) continue;
      const EdgeId e = g.edge_id(path[i], path[j]);
      out.elabels.push_back(e >= 0 ? g.edge_label_bits(enames, e) : 0u);
    }
  return out;
}

}  // namespace

long MsoCertificate::bits(int n, std::size_t num_classes) const {
  const int tau = static_cast<int>(path.size());
  return static_cast<long>(tau) * congest::id_bits(n) +
         tau * (tau - 1) / 2 +  // bag adjacency
         congest::count_bits(static_cast<std::uint64_t>(num_classes)) + 1;
}

MsoCertification prove_mso(const Graph& g, const mso::FormulaPtr& formula) {
  if (!is_connected(g))
    throw std::invalid_argument("prove_mso: graph must be connected");
  MsoCertification cert;
  cert.lowered = mso::lower(formula);
  cert.engine =
      std::make_shared<bpt::Engine>(bpt::config_for(*cert.lowered));
  const auto forest_opt = greedy_elimination_tree(g, g.num_vertices());
  if (!forest_opt) throw std::logic_error("prove_mso: greedy tree failed");
  const EliminationForest& forest = *forest_opt;

  cert.certs.resize(g.num_vertices());
  const auto& cfg = cert.engine->config();
  // Paths and bag adjacency.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    MsoCertificate& c = cert.certs[v];
    c.path = forest.root_path(v);
    const int tau = static_cast<int>(c.path.size());
    if (tau > bpt::kMaxTerminals)
      throw std::invalid_argument("prove_mso: tree depth exceeds engine width");
    for (int i = 0; i < tau; ++i)
      for (int j = i + 1; j < tau; ++j)
        if (g.has_edge(c.path[i], c.path[j]))
          c.bag_adj |= 1ull << bpt::pair_index(i, j, tau);
  }
  // Subtree classes, deepest first.
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return forest.depth(a) > forest.depth(b);
  });
  bpt::Evaluator evaluator(*cert.engine, cert.lowered);
  PlanCache plans;
  for (VertexId v : order) {
    MsoCertificate& c = cert.certs[v];
    const LabelArrays labels =
        labels_for(g, c.path, c.bag_adj, cfg.vertex_labels, cfg.edge_labels);
    c.vlabels = labels.vlabels;
    c.elabels = labels.elabels;
    const LocalBag bag = bag_from_claim(c.path, c.bag_adj, labels);
    std::vector<VertexId> children_ids;
    std::vector<bpt::TypeId> child_classes;
    for (VertexId ch : forest.children(v)) {
      children_ids.push_back(ch);
      child_classes.push_back(cert.certs[ch].subtree_class);
    }
    const LocalContext lctx = make_local_context(
        bag, children_ids, cfg.vertex_labels, cfg.edge_labels, plans);
    c.subtree_class =
        bpt::fold_type(*cert.engine, *lctx.plan, lctx.graph, child_classes);
    if (forest.parent(v) < 0) c.accepting = evaluator.eval(c.subtree_class);
    cert.max_certificate_bits =
        std::max(cert.max_certificate_bits,
                 c.bits(g.num_vertices(), cert.engine->num_types()));
  }
  return cert;
}

VerifyResult verify_mso(const Graph& g, const MsoCertification& cert) {
  VerifyResult result;
  result.accept.assign(g.num_vertices(), true);
  const auto& cfg = cert.engine->config();
  bpt::Evaluator evaluator(*cert.engine, cert.lowered);
  PlanCache plans;

  auto is_prefix = [](const std::vector<VertexId>& a,
                      const std::vector<VertexId>& b) {
    if (a.size() > b.size()) return false;
    return std::equal(a.begin(), a.end(), b.begin());
  };

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const MsoCertificate& c = cert.certs[v];
    auto reject = [&]() { result.accept[v] = false; };
    // (1) path shape
    if (c.path.empty() || c.path.back() != v ||
        std::set<VertexId>(c.path.begin(), c.path.end()).size() !=
            c.path.size() ||
        static_cast<int>(c.path.size()) > bpt::kMaxTerminals) {
      reject();
      continue;
    }
    const int tau = static_cast<int>(c.path.size());
    if (tau > 1) {
      const VertexId parent = c.path[tau - 2];
      if (parent < 0 || parent >= g.num_vertices() || !g.has_edge(v, parent)) {
        reject();
        continue;
      }
      const auto& pc = cert.certs[parent];
      if (static_cast<int>(pc.path.size()) != tau - 1 ||
          !is_prefix(pc.path, c.path)) {
        reject();
        continue;
      }
      // (3b) bag adjacency restriction equals the parent's claim.
      bool ok = true;
      for (int i = 0; i < tau - 1 && ok; ++i)
        for (int j = i + 1; j < tau - 1 && ok; ++j)
          ok = (((c.bag_adj >> bpt::pair_index(i, j, tau)) & 1) ==
                ((pc.bag_adj >> bpt::pair_index(i, j, tau - 1)) & 1));
      if (!ok) {
        reject();
        continue;
      }
    }
    // (2) every incident edge joins prefix-comparable paths.
    {
      bool ok = true;
      for (auto [u, e] : g.incident(v)) {
        const auto& uc = cert.certs[u];
        if (!is_prefix(c.path, uc.path) && !is_prefix(uc.path, c.path))
          ok = false;
      }
      if (!ok) {
        reject();
        continue;
      }
    }
    // (3a) own adjacency row and own label entries are truthful.
    {
      bool ok = true;
      for (int i = 0; i < tau - 1 && ok; ++i)
        ok = (((c.bag_adj >> bpt::pair_index(i, tau - 1, tau)) & 1) ==
              (g.has_edge(c.path[i], v) ? 1u : 0u));
      if (static_cast<int>(c.vlabels.size()) != tau ||
          c.elabels.size() !=
              static_cast<std::size_t>(std::popcount(c.bag_adj)))
        ok = false;
      if (ok)
        ok = c.vlabels.back() == g.vertex_label_bits(cfg.vertex_labels, v);
      if (ok) {
        // own incident bag edges carry truthful edge labels
        int ordinal = 0;
        for (int i = 0; i < tau && ok; ++i)
          for (int j = i + 1; j < tau && ok; ++j) {
            if (!((c.bag_adj >> bpt::pair_index(i, j, tau)) & 1)) continue;
            if (j == tau - 1) {
              const EdgeId e = g.edge_id(c.path[i], v);
              ok = c.elabels[ordinal] ==
                   (e >= 0 ? g.edge_label_bits(cfg.edge_labels, e) : 0u);
            }
            ++ordinal;
          }
      }
      if (!ok) {
        reject();
        continue;
      }
    }
    // (3c) label claims restricted to the parent's bag match the parent.
    if (tau > 1) {
      const auto& pc = cert.certs[c.path[tau - 2]];
      bool ok = std::equal(pc.vlabels.begin(), pc.vlabels.end(),
                           c.vlabels.begin());
      if (ok) {
        std::vector<std::uint32_t> restricted;
        int ordinal = 0;
        for (int i = 0; i < tau; ++i)
          for (int j = i + 1; j < tau; ++j) {
            if (!((c.bag_adj >> bpt::pair_index(i, j, tau)) & 1)) continue;
            if (j < tau - 1) restricted.push_back(c.elabels[ordinal]);
            ++ordinal;
          }
        ok = restricted == pc.elabels;
      }
      if (!ok) {
        reject();
        continue;
      }
    }
    // (4) recompute the class from the children's claims (labels and
    // adjacency taken from the *certificate*, validated above).
    {
      LabelArrays labels;
      labels.vlabels = c.vlabels;
      labels.elabels = c.elabels;
      const LocalBag bag = bag_from_claim(c.path, c.bag_adj, labels);
      std::vector<VertexId> children_ids;
      std::vector<bpt::TypeId> child_classes;
      for (auto [u, e] : g.incident(v)) {
        const auto& uc = cert.certs[u];
        if (static_cast<int>(uc.path.size()) == tau + 1 &&
            is_prefix(c.path, uc.path) && uc.path.back() == u) {
          children_ids.push_back(u);
          child_classes.push_back(uc.subtree_class);
        }
      }
      bpt::TypeId expected = bpt::kInvalidType;
      try {
        const LocalContext lctx = make_local_context(
            bag, children_ids, cfg.vertex_labels, cfg.edge_labels, plans);
        expected = bpt::fold_type(*cert.engine, *lctx.plan, lctx.graph,
                                  child_classes);
      } catch (const std::exception&) {
        reject();
        continue;
      }
      if (expected != c.subtree_class) {
        reject();
        continue;
      }
    }
    // (5) root verdict.
    if (tau == 1) {
      if (!c.accepting || !evaluator.eval(c.subtree_class)) reject();
    }
  }
  for (bool a : result.accept) result.all_accept = result.all_accept && a;
  return result;
}

}  // namespace dmc::dist
