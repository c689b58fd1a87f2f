#include "route/router.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/log.h"
#include "common/perf.h"

namespace mmflow::route {

namespace {

using arch::RoutingGraph;
using arch::RrKind;

double base_cost(RrKind kind) {
  switch (kind) {
    case RrKind::Source: return 0.0;
    case RrKind::Opin: return 0.9;
    case RrKind::ChanX:
    case RrKind::ChanY: return 1.0;
    case RrKind::Ipin: return 0.9;
    case RrKind::Sink: return 0.0;
  }
  return 1.0;
}

constexpr double kInf = 1e30;

/// Probe-mode give-up checkpoints: at `iteration`, a probe whose conflicted
/// node count is still above `percent`% of its iteration-1 count gives up.
/// docs/ROUTING.md has the evidence behind the thresholds.
struct GiveUpCheckpoint {
  int iteration;
  std::int64_t percent;
};
constexpr GiveUpCheckpoint kGiveUp[] = {{10, 33}, {20, 16}};

bool hopeless(int iter, int bad, int first_bad) {
  for (const GiveUpCheckpoint& cp : kGiveUp) {
    if (iter == cp.iteration &&
        100 * static_cast<std::int64_t>(bad) > cp.percent * first_bad) {
      return true;
    }
  }
  return false;
}

/// Per-node hot state, packed so that one A* relaxation touches a single
/// cache line: the search-owned label (best_cost / prev_edge), the
/// router-owned occupancy summary (`occupied` has bit m set iff the node is
/// occupied in mode m) and the precomputed base-plus-history cost.
struct alignas(32) NodeHot {
  double best_cost = 0.0;   ///< A* label, reset via the touched list
  double base_hist = 0.0;   ///< base cost + accumulated congestion history
  std::int32_t prev_edge = -1;
  ModeMask occupied = 0;
  /// Tag of the node's one live open-heap entry: bumped on every push, so
  /// an entry whose tag differs was superseded by a cheaper push (stale).
  /// Never reset; a search clears its heap, so no entry outlives it.
  std::uint32_t live_tag = 0;
  std::uint8_t is_sink = 0;
  std::uint8_t pad_[3] = {};
};
static_assert(sizeof(NodeHot) == 32);

/// Mutable router state: ownership per node per mode (SoA), congestion
/// history, and the per-node hot summaries.
///
/// The per-(node, mode) ownership records are split into parallel flat
/// arrays (net / edge / refs) indexed by node*num_modes+m; the packed
/// `NodeHot::occupied` word lets an A* edge relaxation decide the common
/// uncontended case (node free in every queried mode, nothing to share or
/// align with) with a single word test instead of three scans over
/// scattered records.
class RouterState {
 public:
  /// One (node, mode) ownership record, packed so the contended-score path
  /// reads it with a single 8-byte load.
  struct OwnerRec {
    std::int32_t net = -1;
    std::int32_t edge = -1;  ///< driving edge (-1 for the source node itself)
    bool operator==(const OwnerRec&) const = default;
  };

  RouterState(const RoutingGraph& rrg, int num_modes)
      : num_modes_(num_modes),
        hot_(rrg.num_nodes()),
        owner_(rrg.num_nodes() * static_cast<std::size_t>(num_modes)),
        refs_(rrg.num_nodes() * static_cast<std::size_t>(num_modes), 0),
        history_(rrg.num_nodes(), 0.0),
        base_(rrg.num_nodes(), 0.0) {
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      base_[n] = base_cost(rrg.node(n).kind);
      hot_[n].best_cost = kInf;
      hot_[n].base_hist = base_[n];
      hot_[n].is_sink = rrg.node(n).kind == RrKind::Sink ? 1 : 0;
    }
  }

  /// Mutable hot-node array, shared with the search (which owns the
  /// best_cost / prev_edge fields between resets).
  [[nodiscard]] NodeHot* hot() { return hot_.data(); }

  [[nodiscard]] ModeMask occupied(std::uint32_t node) const {
    return hot_[node].occupied;
  }
  /// Precomputed base cost per node (flat array; replaces the former
  /// per-relaxation switch on the node kind).
  [[nodiscard]] double base(std::uint32_t node) const { return base_[node]; }
  [[nodiscard]] double history(std::uint32_t node) const {
    return history_[node];
  }
  void add_history(std::uint32_t node, double amount) {
    history_[node] += amount;
    // Maintained on this cold path so the hot relaxation pays one load.
    hot_[node].base_hist = base_[node] + history_[node];
  }

  /// Fused occupancy query for one edge relaxation, replacing the former
  /// separate conflicts / fully_shared / aligned_with_other_modes scans:
  ///  * `conflicts`: modes in `mask` where the node is occupied by a
  ///    different (net, edge);
  ///  * `fully_shared`: node already owned by (net, edge) in *every* mode of
  ///    `mask` (free re-use of the net's existing tree);
  ///  * `aligned`: all *other* occupied modes drive the node through `edge`
  ///    (and at least one exists), so its mux select bits stay static.
  struct Score {
    int conflicts = 0;
    bool fully_shared = false;
    bool aligned = false;
  };

  [[nodiscard]] Score score(std::uint32_t node, std::int32_t edge,
                            std::int32_t net, ModeMask mask) const {
    Score s;
    const ModeMask occ = hot_[node].occupied;
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    const OwnerRec want{net, edge};

    const ModeMask mine = occ & mask;
    bool shared_all = mine == mask;
    for (ModeMask bits = mine; bits != 0; bits &= bits - 1) {
      const std::size_t idx = base + static_cast<std::size_t>(std::countr_zero(bits));
      if (!(owner_[idx] == want)) {
        ++s.conflicts;
        shared_all = false;
      }
    }
    s.fully_shared = shared_all;
    if (!shared_all && s.conflicts == 0) {
      const ModeMask others = occ & ~mask;
      if (others != 0) {
        s.aligned = true;
        for (ModeMask bits = others; bits != 0; bits &= bits - 1) {
          const std::size_t idx =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          if (owner_[idx].edge != edge) {
            s.aligned = false;
            break;
          }
        }
      }
    }
    return s;
  }

  void occupy(std::uint32_t node, std::int32_t edge, std::int32_t net,
              ModeMask mask) {
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    for (ModeMask bits = mask; bits != 0; bits &= bits - 1) {
      const int m = std::countr_zero(bits);
      const std::size_t idx = base + static_cast<std::size_t>(m);
      if (refs_[idx] == 0) {
        owner_[idx] = OwnerRec{net, edge};
        refs_[idx] = 1;
        hot_[node].occupied |= ModeMask{1} << m;
      } else {
        // Conflicting occupancy is allowed transiently during negotiation;
        // ownership tracks the most recent claim, refs the claim count.
        owner_[idx] = OwnerRec{net, edge};
        ++refs_[idx];
      }
    }
  }

  void release(std::uint32_t node, ModeMask mask) {
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    for (ModeMask bits = mask; bits != 0; bits &= bits - 1) {
      const int m = std::countr_zero(bits);
      const std::size_t idx = base + static_cast<std::size_t>(m);
      MMFLOW_CHECK(refs_[idx] > 0);
      if (--refs_[idx] == 0) {
        owner_[idx] = OwnerRec{};
        hot_[node].occupied &= ~(ModeMask{1} << m);
      }
    }
  }

  [[nodiscard]] int num_modes() const { return num_modes_; }

 private:
  int num_modes_;
  std::vector<NodeHot> hot_;
  std::vector<OwnerRec> owner_;
  std::vector<std::uint16_t> refs_;
  std::vector<double> history_;
  std::vector<double> base_;
};

/// Incremental legality audit. Ownership bookkeeping cannot by itself
/// detect all conflicts after rip-up/re-route churn (the owner record keeps
/// only the latest claimant), so legality is verified against the actual
/// connection paths — but instead of rebuilding an O(nodes x modes) claims
/// table from scratch every iteration, the index maintains, per node, the
/// list of (connection, entering edge) claims currently routed through it,
/// and re-validates only the nodes whose occupancy changed since the last
/// audit. A node's conflict status is order-independent (conflicted iff two
/// distinct (net, driver) claims share a mode), so the incremental result
/// is identical to the full rebuild.
class AuditIndex {
 public:
  explicit AuditIndex(const RoutingGraph& rrg)
      : rrg_(rrg),
        claims_(rrg.num_nodes()),
        dirty_flag_(rrg.num_nodes(), 0),
        bad_pos_(rrg.num_nodes(), -1) {}

  /// Registers a freshly routed path (call after RouterState::occupy).
  void add_path(std::uint32_t ci, const RoutedConn& rc) {
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      const std::uint32_t node = rc.nodes[i];
      // SINK nodes are logical endpoints with capacity K (the K logically
      // equivalent LUT input pins); exclusivity is enforced on the IPINs.
      if (rrg_.node(node).kind == RrKind::Sink) continue;
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      claims_[node].push_back(Entry{ci, edge});
      mark_dirty(node);
    }
  }

  /// Unregisters a path about to be ripped up (call before clearing it).
  void remove_path(std::uint32_t ci, const RoutedConn& rc) {
    for (const std::uint32_t node : rc.nodes) {
      if (rrg_.node(node).kind == RrKind::Sink) continue;
      auto& list = claims_[node];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].conn == ci) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
      mark_dirty(node);
    }
  }

  /// Re-validates dirty nodes, bumps congestion history on every currently
  /// conflicted node, flags connections through conflicted nodes; returns
  /// the conflicted node count. Equivalent to the former full-table audit.
  int run(const std::vector<RoutedConn>& conns, RouterState* state,
          double hist_fac, std::vector<std::uint8_t>* conn_in_conflict) {
    MMFLOW_PERF_ADD("route.audits", 1);
    MMFLOW_PERF_ADD("route.audit_dirty_nodes", dirty_.size());
    for (const std::uint32_t node : dirty_) {
      dirty_flag_[node] = 0;
      set_bad(node, recompute(node, conns));
    }
    dirty_.clear();

    for (const std::uint32_t node : bad_list_) {
      state->add_history(node, hist_fac);
    }
    if (conn_in_conflict != nullptr) {
      conn_in_conflict->assign(conns.size(), 0);
      for (const std::uint32_t node : bad_list_) {
        for (const Entry& e : claims_[node]) {
          (*conn_in_conflict)[e.conn] = 1;
        }
      }
    }
    return static_cast<int>(bad_list_.size());
  }

 private:
  struct Entry {
    std::uint32_t conn = 0;
    std::int32_t edge = -1;  ///< driving edge (-1 for the source node itself)
  };

  void mark_dirty(std::uint32_t node) {
    if (dirty_flag_[node] == 0) {
      dirty_flag_[node] = 1;
      dirty_.push_back(node);
    }
  }

  /// True iff two claims with distinct (net, edge) share a mode on `node`.
  [[nodiscard]] bool recompute(std::uint32_t node,
                               const std::vector<RoutedConn>& conns) const {
    std::int32_t claim_net[32];
    std::int32_t claim_edge[32];
    ModeMask seen = 0;
    for (const Entry& e : claims_[node]) {
      const RoutedConn& rc = conns[e.conn];
      const auto net = static_cast<std::int32_t>(rc.net);
      for (ModeMask bits = rc.modes; bits != 0; bits &= bits - 1) {
        const int m = std::countr_zero(bits);
        if ((seen >> m & 1) == 0) {
          seen |= ModeMask{1} << m;
          claim_net[m] = net;
          claim_edge[m] = e.edge;
        } else if (claim_net[m] != net || claim_edge[m] != e.edge) {
          return true;
        }
      }
    }
    return false;
  }

  void set_bad(std::uint32_t node, bool bad) {
    if (bad && bad_pos_[node] < 0) {
      bad_pos_[node] = static_cast<std::int32_t>(bad_list_.size());
      bad_list_.push_back(node);
    } else if (!bad && bad_pos_[node] >= 0) {
      const std::int32_t pos = bad_pos_[node];
      const std::uint32_t moved = bad_list_.back();
      bad_list_[static_cast<std::size_t>(pos)] = moved;
      bad_pos_[moved] = pos;
      bad_list_.pop_back();
      bad_pos_[node] = -1;
    }
  }

  const RoutingGraph& rrg_;
  std::vector<std::vector<Entry>> claims_;  ///< per node: live path claims
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::int32_t> bad_pos_;   ///< position in bad_list_ or -1
  std::vector<std::uint32_t> bad_list_; ///< currently conflicted nodes
};

/// Flat, cache-friendly mirrors of the RRG fields the A* inner loop touches
/// — a packed (target, edge-id) adjacency array in CSR order so one
/// relaxation is one sequential 8-byte load instead of two dependent
/// indirections. Immutable once built.
struct FlatRrg {
  struct Adj {
    std::uint32_t to = 0;
    std::uint32_t edge = 0;
  };

  std::vector<std::int16_t> x, y;
  std::vector<std::uint32_t> adj_offset;
  std::vector<Adj> adj;
  std::vector<std::uint32_t> edge_from;

  explicit FlatRrg(const RoutingGraph& rrg)
      : x(rrg.num_nodes(), 0),
        y(rrg.num_nodes(), 0),
        adj_offset(rrg.num_nodes() + 1, 0),
        edge_from(rrg.num_edges(), 0) {
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      const auto& node = rrg.node(n);
      x[n] = node.x;
      y[n] = node.y;
    }
    adj.reserve(rrg.num_edges());
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      adj_offset[n] = static_cast<std::uint32_t>(adj.size());
      auto [begin, end] = rrg.out_edges(n);
      for (const auto* it = begin; it != end; ++it) {
        adj.push_back(Adj{rrg.edge(*it).to, *it});
      }
    }
    adj_offset[rrg.num_nodes()] = static_cast<std::uint32_t>(adj.size());
    for (std::uint32_t e = 0; e < rrg.num_edges(); ++e) {
      edge_from[e] = rrg.edge(e).from;
    }
  }
};

/// A* search for one connection over the FlatRrg mirrors, with a
/// reusable open heap that is cleared, not reallocated, per connection.
/// Labels (best_cost / prev_edge) live in the router's NodeHot array, so one
/// relaxation touches a single cache line.
class Search {
 public:
  explicit Search(const FlatRrg& flat) : flat_(&flat) {}

  /// Returns the path (nodes + entering edges) or false on failure.
  /// Scribbles A* labels into `state`'s hot-node array (reset on entry via
  /// the touched list).
  bool run(RouterState& state, std::uint32_t source, std::uint32_t sink,
           std::int32_t net, ModeMask mask, double pres_fac,
           double share_discount, double align_discount, double astar_fac,
           RoutedConn* out) {
    NodeHot* const hot = state.hot();
    // Reset touched entries from the previous search.
    for (const std::uint32_t n : touched_) {
      hot[n].best_cost = kInf;
      hot[n].prev_edge = -1;
    }
    touched_.clear();
    open_.clear();

    const FlatRrg& flat = *flat_;
    const int sink_x = flat.x[sink];
    const int sink_y = flat.y[sink];
    const auto distance = [&](std::uint32_t n) {
      return std::abs(static_cast<int>(flat.x[n]) - sink_x) +
             std::abs(static_cast<int>(flat.y[n]) - sink_y);
    };

    // pres_fac is constant for the whole search and a connection conflicts
    // in at most popcount(mask) modes: precompute the congestion factors so
    // the contended relaxation pays one table load instead of a mul+add
    // (identical arithmetic: entry c holds exactly 1.0 + pres_fac * c).
    double conflict_factor[33];
    const int max_conflicts = std::popcount(mask);
    for (int c = 0; c <= max_conflicts; ++c) {
      conflict_factor[c] = 1.0 + pres_fac * c;
    }

    hot[source].best_cost = 0.0;
    hot[source].prev_edge = -1;
    touched_.push_back(source);
    push(hot, astar_fac * distance(source), source);

    while (!open_.empty()) {
      const QEntry top = pop();
      if (top.node == sink) break;
      if (top.tag != hot[top.node].live_tag) continue;  // stale entry
      ++expanded_;
      // A live entry is the node's latest push, whose g set best_cost; a
      // later push would have made it stale. So best_cost is its g.
      const double top_g = hot[top.node].best_cost;

      const FlatRrg::Adj* it = flat.adj.data() + flat.adj_offset[top.node];
      const FlatRrg::Adj* end = flat.adj.data() + flat.adj_offset[top.node + 1];
      for (; it != end; ++it) {
        const std::uint32_t to = it->to;
        NodeHot& h = hot[to];
        // Sinks other than the target are dead ends.
        if (h.is_sink != 0 && to != sink) continue;

        double node_cost;
        if (to == sink) {
          node_cost = 0.0;
        } else if (h.occupied == 0) {
          // Uncontended node, nothing to share or align with: the former
          // (base + history) * (1 + pres_fac * 0) collapses to one load
          // (multiplying by exactly 1.0 is an identity).
          node_cost = h.base_hist;
        } else {
          const auto edge_id = static_cast<std::int32_t>(it->edge);
          const RouterState::Score s = state.score(to, edge_id, net, mask);
          if (s.fully_shared) {
            node_cost = state.base(to) * share_discount;
          } else {
            node_cost = h.base_hist * conflict_factor[s.conflicts];
            if (s.aligned) node_cost *= align_discount;
          }
        }

        const double g = top_g + node_cost;
        if (g + 1e-12 < h.best_cost) {
          if (h.best_cost == kInf) touched_.push_back(to);
          h.best_cost = g;
          h.prev_edge = static_cast<std::int32_t>(it->edge);
          push(hot, g + astar_fac * distance(to), to);
        }
      }
    }

    if (hot[sink].best_cost >= kInf) return false;

    // Reconstruct.
    out->nodes.clear();
    out->edges.clear();
    std::uint32_t node = sink;
    while (node != source) {
      const std::int32_t e = hot[node].prev_edge;
      MMFLOW_CHECK(e >= 0);
      out->nodes.push_back(node);
      out->edges.push_back(static_cast<std::uint32_t>(e));
      node = flat.edge_from[static_cast<std::uint32_t>(e)];
    }
    out->nodes.push_back(source);
    std::reverse(out->nodes.begin(), out->nodes.end());
    std::reverse(out->edges.begin(), out->edges.end());
    return true;
  }

  /// Flushes accumulated per-search tallies into the perf registry.
  void flush_perf() {
    MMFLOW_PERF_ADD("route.heap_pushes", pushes_);
    MMFLOW_PERF_ADD("route.heap_pops", pops_);
    MMFLOW_PERF_ADD("route.nodes_expanded", expanded_);
    pushes_ = 0;
    pops_ = 0;
    expanded_ = 0;
  }

 private:
  /// 16 bytes: the entry's g is not stored, because a live entry's g is
  /// its node's best_cost (see `NodeHot::live_tag`).
  struct QEntry {
    double f = 0.0;
    std::uint32_t node = 0;
    std::uint32_t tag = 0;
  };
  static_assert(sizeof(QEntry) == 16);

  // A binary min-heap on f over a reusable vector, with the exact sift
  // sequence of libstdc++'s std::push_heap / std::pop_heap. Ties on f are
  // common, and the entry that wins one decides the routed paths, so the
  // tie order is fixed here rather than left to the standard library
  // (docs/ROUTING.md, determinism contract).
  void push(NodeHot* hot, double f, std::uint32_t node) {
    open_.push_back(QEntry{f, node, ++hot[node].live_tag});
    sift_up(open_.size() - 1, open_.back());
    ++pushes_;
  }

  QEntry pop() {
    const QEntry top = open_.front();
    const QEntry last = open_.back();
    open_.pop_back();
    const std::size_t len = open_.size();
    if (len > 0) {
      // Walk the hole from the root to a leaf, always taking the smaller
      // child (the right one on a tie), then sift the former last entry
      // up from there.
      QEntry* const heap = open_.data();
      std::size_t hole = 0;
      std::size_t child = 0;
      while (child < (len - 1) / 2) {
        child = 2 * (child + 1);
        child -= static_cast<std::size_t>(heap[child].f > heap[child - 1].f);
        heap[hole] = heap[child];
        hole = child;
      }
      if ((len & 1) == 0 && child == (len - 2) / 2) {
        child = 2 * (child + 1);
        heap[hole] = heap[child - 1];
        hole = child - 1;
      }
      sift_up(hole, last);
    }
    ++pops_;
    return top;
  }

  /// Moves the hole at `hole` up while its parent's f is larger, and drops
  /// `e` into it.
  void sift_up(std::size_t hole, QEntry e) {
    QEntry* const heap = open_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(heap[parent].f > e.f)) break;
      heap[hole] = heap[parent];
      hole = parent;
    }
    heap[hole] = e;
  }

  const FlatRrg* flat_;
  std::vector<std::uint32_t> touched_;
  std::vector<QEntry> open_;

  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t expanded_ = 0;
};

}  // namespace

RouteResult route(const RoutingGraph& rrg, const RouteProblem& problem,
                  const RouterOptions& options, RouteMode mode) {
  MMFLOW_REQUIRE(problem.num_modes >= 1 && problem.num_modes <= 32);
  MMFLOW_REQUIRE_MSG(options.jobs == 1,
                     "RouterOptions::jobs must be 1 (got " << options.jobs
                         << "): routing is sequential; parallelism lives in "
                            "core::BatchDriver");
  // The bit-scan state updates index ownership rows by mask bit, so a stray
  // bit >= num_modes would read out of bounds (the former per-mode loops
  // silently ignored such bits); reject malformed masks up front.
  for (const RouteNet& net : problem.nets) {
    for (const RouteConn& conn : net.conns) {
      MMFLOW_REQUIRE_MSG(
          problem.num_modes == 32 || (conn.modes >> problem.num_modes) == 0,
          "connection mode mask " << conn.modes << " exceeds num_modes "
                                  << problem.num_modes);
    }
  }
  MMFLOW_PERF_SCOPE("route.total");
  MMFLOW_PERF_ADD("route.calls", 1);

  RouterState state(rrg, problem.num_modes);
  AuditIndex audit(rrg);
  const FlatRrg flat(rrg);
  Search search(flat);

  RouteResult result;
  for (std::uint32_t n = 0; n < problem.nets.size(); ++n) {
    for (std::uint32_t c = 0; c < problem.nets[n].conns.size(); ++c) {
      RoutedConn rc;
      rc.net = n;
      rc.conn = c;
      rc.modes = problem.nets[n].conns[c].modes;
      result.conns.push_back(std::move(rc));
    }
  }

  // Route fanout-heavy nets first (stable order, recomputed after splits).
  std::vector<std::size_t> order;
  auto rebuild_order = [&] {
    order.resize(result.conns.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return problem.nets[result.conns[a].net].conns.size() >
                              problem.nets[result.conns[b].net].conns.size();
                     });
  };
  rebuild_order();

  double pres_fac = options.first_iter_pres_fac;
  std::vector<std::uint8_t> conn_in_conflict(result.conns.size(), 1);
  int first_bad = 0;  // conflicted nodes after iteration 1

  // Rips up `ci`'s current path (no-op if it has none).
  const auto rip_up = [&](std::size_t ci) {
    RoutedConn& rc = result.conns[ci];
    if (rc.nodes.empty()) return;
    audit.remove_path(static_cast<std::uint32_t>(ci), rc);
    for (const std::uint32_t node : rc.nodes) state.release(node, rc.modes);
    rc.nodes.clear();
    rc.edges.clear();
  };

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    poll_cancel(options.cancel);
    // Feasibility escape hatch: a merged connection constrains all its modes
    // to one physical path; with >= 3 modes that joint constraint can be
    // unsatisfiable. Split still-conflicted merged connections into
    // per-mode connections (same net, so trunk sharing remains possible).
    if (iter > options.split_conflicted_after) {
      bool split_any = false;
      const std::size_t original = result.conns.size();
      for (std::size_t ci = 0; ci < original; ++ci) {
        RoutedConn& rc = result.conns[ci];
        if (!conn_in_conflict[ci] || std::popcount(rc.modes) <= 1) continue;
        rip_up(ci);
        ModeMask remaining = rc.modes & (rc.modes - 1);  // all but lowest bit
        rc.modes &= ~remaining;                          // keep lowest bit
        // Copy before the push_backs below: they may reallocate result.conns
        // and invalidate `rc`.
        const std::uint32_t split_net = rc.net;
        const std::uint32_t split_conn = rc.conn;
        while (remaining != 0) {
          const ModeMask low = remaining & (0u - remaining);
          remaining &= ~low;
          RoutedConn extra;
          extra.net = split_net;
          extra.conn = split_conn;
          extra.modes = low;
          result.conns.push_back(std::move(extra));
          conn_in_conflict.push_back(1);
        }
        split_any = true;
        MMFLOW_PERF_ADD("route.splits", 1);
      }
      if (split_any) {
        MMFLOW_DEBUG("route iter " << iter << ": split merged connections ("
                                   << result.conns.size() << " total)");
        rebuild_order();
      }
    }

    // After the first iteration, only connections through conflicted nodes
    // are re-routed (connection-router behaviour: untouched connections keep
    // their path and their static bits).
    for (const std::size_t ci : order) {
      if (iter > 1 && !conn_in_conflict[ci]) continue;
      rip_up(ci);
      RoutedConn& rc = result.conns[ci];
      const auto& net = problem.nets[rc.net];
      const bool found = search.run(
          state, net.source_node, net.conns[rc.conn].sink_node,
          static_cast<std::int32_t>(rc.net), rc.modes, pres_fac,
          options.share_discount, options.align_discount, options.astar_fac,
          &rc);
      MMFLOW_CHECK_MSG(found, "disconnected routing graph: no path for net "
                                  << net.name);
      for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
        const std::int32_t edge =
            i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
        state.occupy(rc.nodes[i], edge, static_cast<std::int32_t>(rc.net),
                     rc.modes);
      }
      audit.add_path(static_cast<std::uint32_t>(ci), rc);
      MMFLOW_PERF_ADD("route.conns_routed", 1);
    }

    const int bad = audit.run(result.conns, &state, options.hist_fac,
                              &conn_in_conflict);
    result.iterations = iter;
    MMFLOW_PERF_ADD("route.iterations", 1);
    if (bad == 0) {
      result.success = true;
      break;
    }
    MMFLOW_DEBUG("route iter " << iter << ": " << bad << " conflicted nodes");
    if (iter == 1) first_bad = bad;
    if (mode == RouteMode::Probe && hopeless(iter, bad, first_bad)) {
      MMFLOW_PERF_ADD("route.probes_abandoned", 1);
      break;
    }
    pres_fac = std::min(pres_fac * options.pres_fac_mult, options.max_pres_fac);
  }
  search.flush_perf();
  return result;
}

std::vector<bitstream::RoutingState> RouteResult::per_mode_states(
    const RoutingGraph& rrg, const RouteProblem& problem) const {
  std::vector<bitstream::RoutingState> states(
      static_cast<std::size_t>(problem.num_modes),
      bitstream::RoutingState(rrg.num_nodes()));
  for (const RoutedConn& rc : conns) {
    for (std::size_t i = 0; i + 1 < rc.nodes.size(); ++i) {
      const std::uint32_t to = rc.nodes[i + 1];
      const std::uint32_t edge = rc.edges[i];
      for (int m = 0; m < problem.num_modes; ++m) {
        if (rc.modes >> m & 1) {
          states[static_cast<std::size_t>(m)].set_driver(to, edge);
        }
      }
    }
  }
  return states;
}

std::size_t RouteResult::wirelength_of_mode(const RoutingGraph& rrg,
                                            const RouteProblem& problem,
                                            int mode) const {
  (void)problem;  // masks live on the RoutedConns (splits may refine them)
  std::vector<std::uint8_t> visited(rrg.num_nodes(), 0);
  std::size_t wires = 0;
  for (const RoutedConn& rc : conns) {
    if (!(rc.modes >> mode & 1)) continue;
    for (const std::uint32_t node : rc.nodes) {
      if (rrg.is_wire(node) && visited[node] == 0) {
        visited[node] = 1;
        ++wires;
      }
    }
  }
  return wires;
}

std::size_t RouteResult::total_wirelength(const RoutingGraph& rrg) const {
  std::vector<std::uint8_t> visited(rrg.num_nodes(), 0);
  std::size_t wires = 0;
  for (const RoutedConn& rc : conns) {
    for (const std::uint32_t node : rc.nodes) {
      if (rrg.is_wire(node) && visited[node] == 0) {
        visited[node] = 1;
        ++wires;
      }
    }
  }
  return wires;
}

int search_min_width(const std::function<bool(int)>& routable_at,
                     int max_width) {
  // Memoized probe: each candidate width is evaluated at most once, even if
  // the scan and the bisection revisit it.
  std::map<int, bool> probed;
  auto routable = [&](int width) {
    const auto it = probed.find(width);
    if (it != probed.end()) return it->second;
    MMFLOW_PERF_ADD("route.width_probes", 1);
    const bool ok = routable_at(width);
    probed.emplace(width, ok);
    return ok;
  };

  // Exponential scan upward from a small width; the last step is clamped
  // to max_width so every width up to it stays reachable.
  MMFLOW_REQUIRE_MSG(max_width >= 1,
                     "max_width must be >= 1, got " << max_width);
  int lo = 0;  // unroutable lower bound (exclusive; 0 tracks never routes)
  int hi = std::min(4, max_width);  // candidate
  while (!routable(hi)) {
    MMFLOW_REQUIRE_MSG(hi < max_width, "unroutable even at channel width "
                                           << max_width);
    lo = hi;
    hi = std::min(2 * hi, max_width);
  }
  // Binary search in (lo, hi].
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (routable(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace mmflow::route
