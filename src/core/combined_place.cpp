#include "core/combined_place.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/log.h"
#include "common/perf.h"
#include "common/stats.h"
#include "place/timing_model.h"

namespace mmflow::core {

namespace {

using arch::DeviceGrid;
using arch::Site;
using place::PlaceBlock;
using place::Placement;
using place::PlaceNetlist;

/// The λ-blend bookkeeping of the timing layer's composite objective
///   cost = (1-λ)·WL/WL_norm + λ·T/T_norm.
/// The raw wirelength and timing totals are maintained incrementally by the
/// annealer; `rebase()` runs once per temperature epoch.
struct CompositeObjective {
  double lambda = 0.0;
  double wl_sum = 0.0;
  double t_sum = 0.0;
  double wl_norm = 1.0;
  double t_norm = 1.0;

  /// Re-bases the normalizations on the current raw totals (so neither
  /// term starves the other as magnitudes drift during the anneal).
  void rebase() {
    wl_norm = std::max(wl_sum, 1e-12);
    t_norm = std::max(t_sum, 1e-12);
  }
  [[nodiscard]] double cost() const {
    return (1.0 - lambda) * wl_sum / wl_norm + lambda * t_sum / t_norm;
  }
  /// Composite delta of a move with raw deltas (dwl, dt).
  [[nodiscard]] double delta(double dwl, double dt) const {
    return (1.0 - lambda) * dwl / wl_norm + lambda * dt / t_norm;
  }
  void commit(double dwl, double dt) {
    wl_sum += dwl;
    t_sum += dt;
  }
};

/// Dense site key: CLB sites first, then pad sites.
class SiteKeys {
 public:
  explicit SiteKeys(const DeviceGrid& grid) : grid_(grid) {}

  [[nodiscard]] int key(const Site& s) const {
    return s.type == Site::Type::Clb
               ? grid_.clb_index(s.x, s.y)
               : grid_.num_clb_sites() + grid_.pad_index(s);
  }
  [[nodiscard]] Site site(int key) const {
    return key < grid_.num_clb_sites()
               ? grid_.clb_site(key)
               : grid_.pad_site(key - grid_.num_clb_sites());
  }
  [[nodiscard]] int num_keys() const {
    return grid_.num_clb_sites() + grid_.num_pad_sites();
  }

 private:
  const DeviceGrid& grid_;
};

/// Map from a connection pair key to its non-empty mode mask: open
/// addressing with linear probing and a multiplicative hash. A zero mask
/// marks an empty slot, and erasing shifts the rest of the cluster back, so
/// no tombstones build up. Sized once for `max_keys` live keys at load ≤ ½;
/// it never rehashes.
class PairTable {
 public:
  void reset(std::size_t max_keys) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * max_keys) ++bits;
    slots_.assign(std::size_t{1} << bits, Slot{});
    shift_ = 64 - bits;
    mask_ = slots_.size() - 1;
  }

  /// The mode mask of `key`, 0 if absent.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    return slots_[slot_of(key)].modes;
  }

  /// ORs `bits` into the mask of `key`, inserting it if absent; returns the
  /// mask before.
  std::uint32_t add(std::uint64_t key, std::uint32_t bits) {
    Slot& slot = slots_[slot_of(key)];
    const std::uint32_t before = slot.modes;
    slot = Slot{key, before | bits};
    return before;
  }

  /// Clears `bits` from the mask of `key`, erasing the key once its mask is
  /// empty; returns the mask after. Every bit must be set.
  std::uint32_t remove(std::uint64_t key, std::uint32_t bits) {
    const std::size_t i = slot_of(key);
    MMFLOW_CHECK(bits != 0 && (slots_[i].modes & bits) == bits);
    const std::uint32_t after = slots_[i].modes &= ~bits;
    if (after == 0) erase_at(i);
    return after;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t modes = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].modes != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  /// Backward-shift deletion: every later member of the cluster whose home
  /// does not lie cyclically in (hole, j] moves into the hole.
  void erase_at(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; slots_[j].modes != 0;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].modes = 0;
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::size_t mask_ = 0;
};

/// Shared multi-mode placement state plus cost-engine bookkeeping.
class CombinedSa {
 public:
  CombinedSa(const std::vector<PlaceNetlist>& netlists,
             std::vector<Placement> placements, const DeviceGrid& grid,
             const CombinedPlaceOptions& options, Rng rng)
      : netlists_(netlists),
        placements_(std::move(placements)),
        grid_(grid),
        keys_(grid),
        cost_kind_(options.cost),
        rng_(rng) {
    const int num_modes = static_cast<int>(netlists_.size());
    driven_net_.resize(netlists_.size());
    for (int m = 0; m < num_modes; ++m) {
      driven_net_[m].assign(netlists_[m].num_blocks(), -1);
      for (std::uint32_t n = 0; n < netlists_[m].num_nets(); ++n) {
        driven_net_[m][netlists_[m].nets()[n].driver] = static_cast<std::int32_t>(n);
      }
      netlists_[m].build_block_nets();
    }
    // Total block count for move sampling.
    for (const auto& nl : netlists_) total_blocks_ += nl.num_blocks();

    // Flat per-mode mirrors of the placement, maintained across swaps: the
    // annealer's hot loop runs entirely on block→site, block→site-key and
    // site-key→occupant arrays (no Placement occupancy bookkeeping per
    // move); the Placement objects are rebuilt once at the end.
    block_key_.resize(netlists_.size());
    msite_.resize(netlists_.size());
    occ_.resize(netlists_.size());
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      block_key_[m].resize(netlists_[m].num_blocks());
      msite_[m].resize(netlists_[m].num_blocks());
      occ_[m].assign(static_cast<std::size_t>(keys_.num_keys()), -1);
      for (std::uint32_t b = 0; b < netlists_[m].num_blocks(); ++b) {
        const Site site = placements_[m].site_of(b);
        const int key = keys_.key(site);
        block_key_[m][b] = key;
        msite_[m][b] = site;
        occ_[m][static_cast<std::size_t>(key)] = static_cast<std::int32_t>(b);
      }
    }

    key_epoch_.assign(static_cast<std::size_t>(keys_.num_keys()), 0);
    site_epoch_.assign(static_cast<std::size_t>(keys_.num_keys()), 0);
    if (cost_kind_ == CombinedCost::WireLength) {
      site_cost_.assign(static_cast<std::size_t>(keys_.num_keys()), 0.0);
      cost_ = 0.0;
      for (int s = 0; s < keys_.num_keys(); ++s) {
        site_cost_[static_cast<std::size_t>(s)] = merged_net_cost(s);
        cost_ += site_cost_[static_cast<std::size_t>(s)];
      }
      if (options.timing_tradeoff > 0.0) bind_timing(options);
    } else {
      build_match_table();
      cost_ = -static_cast<double>(matches_);
    }
  }

  [[nodiscard]] double cost() const { return cost_; }
  [[nodiscard]] std::size_t total_blocks() const { return total_blocks_; }
  [[nodiscard]] std::vector<Placement> take_placements() {
    // Rebuild the Placement objects from the annealed mirrors.
    std::vector<Placement> out;
    out.reserve(netlists_.size());
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      Placement p(grid_, netlists_[m].num_blocks());
      for (std::uint32_t b = 0; b < netlists_[m].num_blocks(); ++b) {
        p.assign(b, msite_[m][b]);
      }
      out.push_back(std::move(p));
    }
    return out;
  }
  Rng& rng() { return rng_; }

  /// Flushes accumulated per-anneal tallies into the perf registry.
  void flush_perf() {
    MMFLOW_PERF_ADD("combined_place.moves_proposed", moves_proposed_);
    MMFLOW_PERF_ADD("combined_place.moves_accepted", moves_accepted_);
    MMFLOW_PERF_ADD("combined_place.site_evals", site_evals_);
    MMFLOW_PERF_ADD("combined_place.timing_epochs", timing_epochs_);
    MMFLOW_PERF_ADD("combined_place.pair_probes", pair_probes_);
    MMFLOW_PERF_ADD("combined_place.pair_updates", pair_updates_);
    moves_proposed_ = 0;
    moves_accepted_ = 0;
    site_evals_ = 0;
    timing_epochs_ = 0;
    pair_probes_ = 0;
    pair_updates_ = 0;
  }

  /// Temperature-epoch hook: refreshes every mode's criticalities from the
  /// current positions, recomputes the raw timing costs they weight, and
  /// re-bases the two normalizations so neither term starves the other as
  /// magnitudes drift. No-op unless the timing layer is active, which
  /// keeps the λ=0 path bit-identical to the λ-less annealer.
  void begin_epoch() {
    if (!timing_enabled()) return;
    ++timing_epochs_;
    obj_.t_sum = 0.0;
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      auto& mt = timing_[m];
      mt.graph.update(msite_[m].data());
      for (std::uint32_t n = 0; n < netlists_[m].num_nets(); ++n) {
        mt.net_cost[n] = mt.graph.net_timing_cost(n, msite_[m].data());
        obj_.t_sum += mt.net_cost[n];
      }
    }
    rebase_timing();
  }

  /// One combined-placement move (paper §III-A): choose two sites and a
  /// mode, swap that mode's occupants. Returns acceptance.
  bool try_move(int range_limit, double temperature, double* delta_out) {
    ++moves_proposed_;
    // Pick an occupied site by sampling a random block of a random mode.
    std::uint64_t pick = rng_.next_below(total_blocks_);
    int mode_of_pick = 0;
    while (pick >= netlists_[mode_of_pick].num_blocks()) {
      pick -= netlists_[mode_of_pick].num_blocks();
      ++mode_of_pick;
    }
    const Site s1 = msite_[static_cast<std::size_t>(mode_of_pick)]
                          [static_cast<std::uint32_t>(pick)];

    // Target site of the same type within the range limit.
    Site s2;
    if (s1.type == Site::Type::Clb) {
      const auto& spec = grid_.spec();
      const int xlo = std::max(1, s1.x - range_limit);
      const int xhi = std::min(spec.nx, s1.x + range_limit);
      const int ylo = std::max(1, s1.y - range_limit);
      const int yhi = std::min(spec.ny, s1.y + range_limit);
      s2 = Site{Site::Type::Clb,
                static_cast<std::int16_t>(rng_.next_int(xlo, xhi)),
                static_cast<std::int16_t>(rng_.next_int(ylo, yhi)), 0};
    } else {
      for (int tries = 0;; ++tries) {
        s2 = grid_.pad_site(static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(grid_.num_pad_sites()))));
        if ((std::abs(s2.x - s1.x) <= range_limit &&
             std::abs(s2.y - s1.y) <= range_limit)) {
          break;
        }
        if (tries >= 4) return false;
      }
    }
    if (s2 == s1) return false;
    const int k1 = keys_.key(s1);
    const int k2 = keys_.key(s2);

    // Mode choice among modes present at either site (paper: select a mode
    // for which the swap will be executed).
    ModeSetLocal present = modes_present(k1) | modes_present(k2);
    if (present == 0) return false;
    const int mode = pick_mode(present);

    const std::int32_t b1 = occ_[static_cast<std::size_t>(mode)][static_cast<std::size_t>(k1)];
    const std::int32_t b2 = occ_[static_cast<std::size_t>(mode)][static_cast<std::size_t>(k2)];
    if (b1 < 0 && b2 < 0) return false;

    const double before = affected_cost_before(mode, b1, b2, k1, k2);
    const double t_before = timing_cost_before(mode, b1, b2);
    apply_swap(mode, b1, b2, k1, k2, s1, s2);
    const double after = affected_cost_after();
    const double t_after = timing_cost_after(mode);
    const double delta = timing_enabled()
                             ? obj_.delta(after - before, t_after - t_before)
                             : after - before;

    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng_.next_double() < std::exp(-delta / temperature));
    if (accept) {
      ++moves_accepted_;
      commit_affected(mode);
      commit_timing(mode, after - before, t_after - t_before);
      cost_ += delta;
    } else {
      apply_swap(mode, b2, b1, k1, k2, s1, s2);  // swap back (reversed)
    }
    if (delta_out != nullptr) *delta_out = delta;
    return accept;
  }

 private:
  using ModeSetLocal = std::uint32_t;

  [[nodiscard]] ModeSetLocal modes_present(int key) const {
    ModeSetLocal mask = 0;
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      if (occ_[m][static_cast<std::size_t>(key)] >= 0) {
        mask |= ModeSetLocal{1} << m;
      }
    }
    return mask;
  }

  [[nodiscard]] int pick_mode(ModeSetLocal mask) {
    const int count = std::popcount(mask);
    int index = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(count)));
    for (int m = 0;; ++m) {
      if ((mask >> m) & 1) {
        if (index-- == 0) return m;
      }
    }
  }

  void apply_swap(int mode, std::int32_t b1, std::int32_t b2, int k1, int k2,
                  const Site& s1, const Site& s2) {
    const auto mi = static_cast<std::size_t>(mode);
    occ_[mi][static_cast<std::size_t>(k1)] = b2;
    occ_[mi][static_cast<std::size_t>(k2)] = b1;
    if (b1 >= 0) {
      msite_[mi][static_cast<std::uint32_t>(b1)] = s2;
      block_key_[mi][static_cast<std::uint32_t>(b1)] = k2;
    }
    if (b2 >= 0) {
      msite_[mi][static_cast<std::uint32_t>(b2)] = s1;
      block_key_[mi][static_cast<std::uint32_t>(b2)] = k1;
    }
  }

  // ---- WireLength engine -----------------------------------------------------

  /// Cost of the merged tunable net sourced at site `key` (0 if no driver).
  [[nodiscard]] double merged_net_cost(int key) const {
    ++site_evals_;
    const Site s = keys_.site(key);
    int xmin = s.x, xmax = s.x, ymin = s.y, ymax = s.y;
    // Distinct terminal count: source site + distinct sink sites. Distinct
    // sink sites are counted with an epoch-stamped per-key scratch array
    // (replacing a sort + unique + binary_search per evaluation). The
    // source site itself may appear as a sink site (another mode's block at
    // this site reading this net); it is one physical terminal.
    bool has_driver = false;
    bool self = false;
    int distinct = 0;
    const std::uint64_t epoch = ++key_epoch_counter_;
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      const std::int32_t block = occ_[m][static_cast<std::size_t>(key)];
      if (block < 0) continue;
      const std::int32_t net = driven_net_[m][static_cast<std::uint32_t>(block)];
      if (net < 0) continue;
      has_driver = true;
      for (const auto sink :
           netlists_[m].nets()[static_cast<std::uint32_t>(net)].sinks) {
        const Site ss = msite_[m][sink];
        xmin = std::min<int>(xmin, ss.x);
        xmax = std::max<int>(xmax, ss.x);
        ymin = std::min<int>(ymin, ss.y);
        ymax = std::max<int>(ymax, ss.y);
        const int k = block_key_[m][sink];
        if (key_epoch_[static_cast<std::size_t>(k)] != epoch) {
          key_epoch_[static_cast<std::size_t>(k)] = epoch;
          ++distinct;
          if (k == key) self = true;
        }
      }
    }
    if (!has_driver) return 0.0;
    const std::size_t terminals =
        1 + static_cast<std::size_t>(distinct) - (self ? 1 : 0);
    return place::hpwl_cost(xmin, xmax, ymin, ymax, terminals);
  }

  // ---- timing layer (WireLength engine, timing_tradeoff > 0) ----------------
  //
  // The composite objective is cost = (1-λ)·WL/WL_norm + λ·T/T_norm, where
  // WL is the merged-net wirelength the engine already maintains per source
  // site and T = Σ_modes Σ_conns crit·delay with per-mode criticalities from a
  // pre-route PlaceTimingGraph pass, refreshed once per temperature epoch.
  // A move swaps one mode's occupants, so only that mode's nets touching
  // the moved blocks change their timing cost.

  [[nodiscard]] bool timing_enabled() const { return obj_.lambda > 0.0; }

  void bind_timing(const CombinedPlaceOptions& options) {
    obj_.lambda = options.timing_tradeoff;
    obj_.wl_sum = cost_;  // cost_ currently holds the raw wirelength total
    obj_.t_sum = 0.0;
    timing_.reserve(netlists_.size());
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      timing_.push_back(ModeTiming{
          place::PlaceTimingGraph(netlists_[m], options.timing, grid_.spec()),
          std::vector<double>(netlists_[m].num_nets(), 0.0),
          std::vector<std::uint64_t>(netlists_[m].num_nets(), 0)});
      auto& mt = timing_.back();
      mt.graph.update(msite_[m].data());
      for (std::uint32_t n = 0; n < netlists_[m].num_nets(); ++n) {
        mt.net_cost[n] = mt.graph.net_timing_cost(n, msite_[m].data());
        obj_.t_sum += mt.net_cost[n];
      }
    }
    rebase_timing();
  }

  /// Re-bases the normalizations on the current raw totals and recomputes
  /// the composite cost from them.
  void rebase_timing() {
    obj_.rebase();
    cost_ = obj_.cost();
  }

  /// Raw timing cost of the pending swap's affected nets, *before* the swap
  /// is applied; stashes the net list for the after pass. The collection
  /// reuses an epoch-stamped per-net scratch (like the conventional
  /// placer's mark_nets) — the move loop stays allocation-free.
  double timing_cost_before(int mode, std::int32_t b1, std::int32_t b2) {
    if (!timing_enabled()) return 0.0;
    auto& mt = timing_[static_cast<std::size_t>(mode)];
    pending_tnets_.clear();
    const std::uint64_t epoch = ++tnet_epoch_counter_;
    double before = 0.0;
    for (const std::int32_t b : {b1, b2}) {
      if (b < 0) continue;
      auto [begin, end] =
          netlists_[mode].nets_of_block(static_cast<std::uint32_t>(b));
      for (const auto* it = begin; it != end; ++it) {
        if (mt.net_epoch[*it] != epoch) {
          mt.net_epoch[*it] = epoch;
          pending_tnets_.push_back(*it);
          before += mt.net_cost[*it];
        }
      }
    }
    return before;
  }

  /// Raw timing cost of the affected nets *after* the swap.
  double timing_cost_after(int mode) {
    if (!timing_enabled()) return 0.0;
    const auto& mt = timing_[static_cast<std::size_t>(mode)];
    pending_tcost_.clear();
    double after = 0.0;
    for (const auto n : pending_tnets_) {
      const double c =
          mt.graph.net_timing_cost(n, msite_[static_cast<std::size_t>(mode)].data());
      pending_tcost_.push_back(c);
      after += c;
    }
    return after;
  }

  void commit_timing(int mode, double wl_delta, double t_delta) {
    if (!timing_enabled()) return;
    auto& mt = timing_[static_cast<std::size_t>(mode)];
    for (std::size_t i = 0; i < pending_tnets_.size(); ++i) {
      mt.net_cost[pending_tnets_[i]] = pending_tcost_[i];
    }
    obj_.commit(wl_delta, t_delta);
  }

  // ---- EdgeMatch engine --------------------------------------------------------
  //
  // matches_ = Σ_pairs (|modes(pair)| − 1) over the distinct (source site,
  // sink site) pairs of every mode's connections. A swap moves only mode m's
  // pairs, and toggling m's bit on one pair changes the sum by exactly
  // [pair has another mode's bit]. So the move delta is a count of lookups
  // over the moved connections' new and old pairs against the unchanged
  // table; the table itself is written only when the move is accepted.

  void build_match_table() {
    std::size_t connections = 0;
    for (const auto& nl : netlists_) {
      for (const auto& net : nl.nets()) connections += net.sinks.size();
    }
    match_table_.reset(connections);
    matches_ = 0;
    for (std::size_t m = 0; m < netlists_.size(); ++m) {
      for (const auto& net : netlists_[m].nets()) {
        const int src = block_key_[m][net.driver];
        for (const auto sink : net.sinks) {
          add_pair(pair_key(src, block_key_[m][sink]), ModeSetLocal{1} << m);
        }
      }
    }
  }

  [[nodiscard]] static std::uint64_t pair_key(int src, int sink) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(sink);
  }

  void add_pair(std::uint64_t key, ModeSetLocal bit) {
    const ModeSetLocal before = match_table_.add(key, bit);
    MMFLOW_CHECK_MSG((before & bit) == 0, "duplicate connection pair");
    if (before != 0) ++matches_;
  }

  void remove_pair(std::uint64_t key, ModeSetLocal bit) {
    if (match_table_.remove(key, bit) != 0) --matches_;
  }

  /// Collects the old and new pair of every mode-`mode` connection the swap
  /// of b1 (at k1) and b2 (at k2) moves, without applying it. Each moved
  /// block contributes the connections to every sink of the net it drives,
  /// plus its one connection from the driver of each net it sinks — unless
  /// that driver also moved, whose sweep already covers it (this is what
  /// visits b1→b2 and self-loops exactly once).
  void collect_moved_pairs(int mode, std::int32_t b1, std::int32_t b2, int k1,
                           int k2) {
    const auto mi = static_cast<std::size_t>(mode);
    const PlaceNetlist& nl = netlists_[mi];
    const std::vector<int>& key = block_key_[mi];
    const auto moved_key = [&](std::uint32_t b) {
      const auto sb = static_cast<std::int32_t>(b);
      return sb == b1 ? k2 : sb == b2 ? k1 : key[b];
    };
    const auto visit = [&](std::uint32_t driver, std::uint32_t sink) {
      old_pairs_.push_back(pair_key(key[driver], key[sink]));
      new_pairs_.push_back(pair_key(moved_key(driver), moved_key(sink)));
    };
    old_pairs_.clear();
    new_pairs_.clear();
    for (const std::int32_t b : {b1, b2}) {
      if (b < 0) continue;
      const auto block = static_cast<std::uint32_t>(b);
      const std::int32_t driven = driven_net_[mi][block];
      if (driven >= 0) {
        const auto& net = nl.nets()[static_cast<std::uint32_t>(driven)];
        for (const auto sink : net.sinks) visit(block, sink);
      }
      auto [begin, end] = nl.nets_of_block(block);
      for (const auto* it = begin; it != end; ++it) {
        const std::uint32_t driver = nl.nets()[*it].driver;
        const auto sd = static_cast<std::int32_t>(driver);
        if (sd == b1 || sd == b2) continue;
        visit(driver, block);
      }
    }
  }

  /// Exact change of matches_ for the collected pairs: lookups only.
  [[nodiscard]] std::int64_t moved_pairs_delta(int mode) {
    const ModeSetLocal others = ~(ModeSetLocal{1} << mode);
    std::int64_t delta = 0;
    for (const auto k : new_pairs_) {
      delta += (match_table_.find(k) & others) != 0 ? 1 : 0;
    }
    for (const auto k : old_pairs_) {
      delta -= (match_table_.find(k) & others) != 0 ? 1 : 0;
    }
    pair_probes_ += old_pairs_.size() + new_pairs_.size();
    return delta;
  }

  /// Accepted move: every old pair leaves before any new one arrives, since
  /// one connection's new pair may be another moved connection's old pair.
  void commit_moved_pairs(int mode) {
    const ModeSetLocal bit = ModeSetLocal{1} << mode;
    for (const auto k : old_pairs_) remove_pair(k, bit);
    for (const auto k : new_pairs_) add_pair(k, bit);
    pair_updates_ += old_pairs_.size() + new_pairs_.size();
    MMFLOW_CHECK(matches_ == pending_matches_);
  }

  // ---- incremental delta plumbing ------------------------------------------------

  /// Cost of everything the pending swap can affect, computed *before* the
  /// swap is applied; stashes the affected-site list for the after pass.
  double affected_cost_before(int mode, std::int32_t b1, std::int32_t b2,
                              int k1, int k2) {
    if (cost_kind_ == CombinedCost::EdgeMatch) {
      collect_moved_pairs(mode, b1, b2, k1, k2);
      pending_matches_ = matches_ + moved_pairs_delta(mode);
      return -static_cast<double>(matches_);
    }

    affected_sites_.clear();
    const std::uint64_t epoch = ++site_epoch_counter_;
    auto add_site = [this, epoch](int key) {
      if (site_epoch_[static_cast<std::size_t>(key)] != epoch) {
        site_epoch_[static_cast<std::size_t>(key)] = epoch;
        affected_sites_.push_back(key);
      }
    };
    add_site(k1);
    add_site(k2);
    for (const std::int32_t b : {b1, b2}) {
      if (b < 0) continue;
      const auto block = static_cast<std::uint32_t>(b);
      auto [begin, end] = netlists_[mode].nets_of_block(block);
      for (const auto* it = begin; it != end; ++it) {
        const auto& net = netlists_[mode].nets()[*it];
        add_site(block_key_[static_cast<std::size_t>(mode)][net.driver]);
      }
    }
    double before = 0.0;
    for (const int key : affected_sites_) {
      before += site_cost_[static_cast<std::size_t>(key)];
    }
    return before;
  }

  /// Cost of the affected region *after* the swap has been applied.
  double affected_cost_after() {
    if (cost_kind_ == CombinedCost::EdgeMatch) {
      return -static_cast<double>(pending_matches_);
    }
    new_site_cost_.clear();
    double after = 0.0;
    for (const int key : affected_sites_) {
      const double c = merged_net_cost(key);
      new_site_cost_.push_back(c);
      after += c;
    }
    return after;
  }

  void commit_affected(int mode) {
    if (cost_kind_ == CombinedCost::EdgeMatch) {
      commit_moved_pairs(mode);
      return;
    }
    for (std::size_t i = 0; i < affected_sites_.size(); ++i) {
      site_cost_[static_cast<std::size_t>(affected_sites_[i])] =
          new_site_cost_[i];
    }
  }

  const std::vector<PlaceNetlist>& netlists_;
  std::vector<Placement> placements_;
  const DeviceGrid& grid_;
  SiteKeys keys_;
  CombinedCost cost_kind_;
  Rng rng_;

  std::vector<std::vector<std::int32_t>> driven_net_;  ///< [mode][block]
  std::size_t total_blocks_ = 0;
  double cost_ = 0.0;

  // WireLength engine state.
  std::vector<double> site_cost_;
  std::vector<int> affected_sites_;
  std::vector<double> new_site_cost_;
  mutable std::vector<std::uint64_t> key_epoch_;  ///< distinct-key scratch
  mutable std::uint64_t key_epoch_counter_ = 0;
  std::vector<std::uint64_t> site_epoch_;  ///< affected-site dedup scratch
  std::uint64_t site_epoch_counter_ = 0;
  std::vector<std::vector<int>> block_key_;  ///< [mode][block] site key
  std::vector<std::vector<Site>> msite_;     ///< [mode][block] site mirror
  std::vector<std::vector<std::int32_t>> occ_;  ///< [mode][key] occupant

  std::uint64_t moves_proposed_ = 0;
  std::uint64_t moves_accepted_ = 0;
  mutable std::uint64_t site_evals_ = 0;
  std::uint64_t timing_epochs_ = 0;

  // Timing layer state (empty unless WireLength with timing_tradeoff > 0).
  struct ModeTiming {
    place::PlaceTimingGraph graph;
    std::vector<double> net_cost;  ///< raw crit-weighted delay per net
    std::vector<std::uint64_t> net_epoch;  ///< affected-net dedup scratch
  };
  std::vector<ModeTiming> timing_;
  CompositeObjective obj_;
  std::uint64_t tnet_epoch_counter_ = 0;
  std::vector<std::uint32_t> pending_tnets_;
  std::vector<double> pending_tcost_;

  // EdgeMatch engine state.
  PairTable match_table_;
  std::int64_t matches_ = 0;
  std::int64_t pending_matches_ = 0;
  std::vector<std::uint64_t> old_pairs_;  ///< moved connections' pairs now
  std::vector<std::uint64_t> new_pairs_;  ///< ... and after the pending swap
  std::uint64_t pair_probes_ = 0;
  std::uint64_t pair_updates_ = 0;
};

}  // namespace

CombinedPlacement combined_place(const std::vector<techmap::LutCircuit>& modes,
                                 const DeviceGrid& grid,
                                 const CombinedPlaceOptions& options,
                                 CombinedPlaceStats* stats) {
  MMFLOW_REQUIRE(!modes.empty() && modes.size() <= 32);
  // Checked for both engines, although EdgeMatch never reads λ: a knob out
  // of range is a caller error whichever engine would ignore it.
  MMFLOW_REQUIRE_MSG(options.timing_tradeoff >= 0.0 &&
                         options.timing_tradeoff <= 1.0,
                     "timing_tradeoff must be in [0, 1], got "
                         << options.timing_tradeoff);
  MMFLOW_PERF_SCOPE("combined_place.total");
  MMFLOW_PERF_ADD("combined_place.calls", 1);
  CombinedPlacement out;
  Rng rng(options.seed ^ 0xa02bdbf7bb3c0a7ULL);

  for (const auto& mode : modes) {
    place::LutPlaceMapping mapping;
    out.netlists.push_back(place::to_place_netlist(mode, &mapping));
    out.mappings.push_back(mapping);
  }
  for (const auto& nl : out.netlists) {
    out.placements.push_back(place::random_placement(nl, grid, rng));
  }

  CombinedSa sa(out.netlists, std::move(out.placements), grid, options,
                rng.fork());

  const int max_range = std::max(grid.spec().nx, grid.spec().ny) + 2;
  place::AnnealSchedule schedule(options.anneal, sa.total_blocks(), max_range);

  CombinedPlaceStats local;
  local.initial_cost = sa.cost();

  // Initial temperature from probing moves, as in the conventional placer.
  {
    Summary probe;
    for (std::size_t i = 0; i < sa.total_blocks(); ++i) {
      double delta = 0.0;
      (void)sa.try_move(max_range, 1e30, &delta);
      probe.add(delta);
    }
    schedule.set_initial_temperature(options.anneal.init_t_factor *
                                     probe.stddev());
  }

  std::size_t num_nets = 0;
  for (const auto& nl : out.netlists) num_nets += nl.num_nets();

  while (true) {
    poll_cancel(options.cancel);
    std::int64_t accepted = 0;
    const std::int64_t moves = schedule.moves_per_temperature();
    for (std::int64_t i = 0; i < moves; ++i) {
      accepted += sa.try_move(schedule.range_limit(), schedule.temperature(),
                              nullptr)
                      ? 1
                      : 0;
    }
    local.moves_attempted += moves;
    local.moves_accepted += accepted;
    const double r = static_cast<double>(accepted) / static_cast<double>(moves);

    // EdgeMatch cost is negative; the exit criterion needs a magnitude.
    const double cost_magnitude =
        options.cost == CombinedCost::EdgeMatch
            ? static_cast<double>(num_nets)  // fixed scale: stop on temperature
            : sa.cost();
    if (schedule.should_stop(std::max(cost_magnitude, 1.0), num_nets)) {
      // Zero-temperature quench.
      for (std::int64_t i = 0; i < moves; ++i) {
        (void)sa.try_move(schedule.range_limit(), 0.0, nullptr);
      }
      break;
    }
    schedule.step(r);
    // New temperature: refresh criticalities and normalizations (no-op for
    // λ=0 and for EdgeMatch).
    sa.begin_epoch();
  }

  local.final_cost = sa.cost();
  if (stats != nullptr) *stats = local;
  MMFLOW_INFO("combined_place(" << (options.cost == CombinedCost::WireLength
                                        ? "wirelength"
                                        : "edgematch")
                                << "): cost " << local.initial_cost << " -> "
                                << local.final_cost);

  sa.flush_perf();
  out.placements = sa.take_placements();
  for (std::size_t m = 0; m < out.netlists.size(); ++m) {
    out.placements[m].validate(out.netlists[m]);
  }
  return out;
}

ExtractedMerge extract_merge(const CombinedPlacement& placement,
                             const DeviceGrid& grid) {
  const SiteKeys keys(grid);
  const int num_modes = static_cast<int>(placement.netlists.size());

  ExtractedMerge out;
  std::vector<std::int32_t> tlut_of_site(
      static_cast<std::size_t>(keys.num_keys()), -1);
  std::vector<std::int32_t> tio_of_site(
      static_cast<std::size_t>(keys.num_keys()), -1);

  out.assignment.lut_to_tlut.resize(num_modes);
  out.assignment.pi_to_tio.resize(num_modes);
  out.assignment.po_to_tio.resize(num_modes);

  for (int m = 0; m < num_modes; ++m) {
    const auto& mapping = placement.mappings[m];
    const auto& pl = placement.placements[m];
    const auto& nl = placement.netlists[m];

    out.assignment.lut_to_tlut[m].resize(mapping.num_luts);
    for (std::uint32_t lut = 0; lut < mapping.num_luts; ++lut) {
      const int key = keys.key(pl.site_of(mapping.lut_block(lut)));
      if (tlut_of_site[static_cast<std::size_t>(key)] < 0) {
        tlut_of_site[static_cast<std::size_t>(key)] =
            static_cast<std::int32_t>(out.tlut_site.size());
        out.tlut_site.push_back(keys.site(key));
      }
      out.assignment.lut_to_tlut[m][lut] = static_cast<std::uint32_t>(
          tlut_of_site[static_cast<std::size_t>(key)]);
    }

    const std::uint32_t num_pis = mapping.po_base - mapping.pi_base;
    out.assignment.pi_to_tio[m].resize(num_pis);
    for (std::uint32_t pi = 0; pi < num_pis; ++pi) {
      const int key = keys.key(pl.site_of(mapping.pi_block(pi)));
      if (tio_of_site[static_cast<std::size_t>(key)] < 0) {
        tio_of_site[static_cast<std::size_t>(key)] =
            static_cast<std::int32_t>(out.tio_site.size());
        out.tio_site.push_back(keys.site(key));
      }
      out.assignment.pi_to_tio[m][pi] =
          static_cast<std::uint32_t>(tio_of_site[static_cast<std::size_t>(key)]);
    }

    const std::uint32_t num_pos =
        static_cast<std::uint32_t>(nl.num_blocks()) - mapping.po_base;
    out.assignment.po_to_tio[m].resize(num_pos);
    for (std::uint32_t po = 0; po < num_pos; ++po) {
      const int key = keys.key(pl.site_of(mapping.po_block(po)));
      if (tio_of_site[static_cast<std::size_t>(key)] < 0) {
        tio_of_site[static_cast<std::size_t>(key)] =
            static_cast<std::int32_t>(out.tio_site.size());
        out.tio_site.push_back(keys.site(key));
      }
      out.assignment.po_to_tio[m][po] =
          static_cast<std::uint32_t>(tio_of_site[static_cast<std::size_t>(key)]);
    }
  }
  out.assignment.num_tluts = static_cast<std::uint32_t>(out.tlut_site.size());
  out.assignment.num_tios = static_cast<std::uint32_t>(out.tio_site.size());
  return out;
}

double merged_wirelength_cost(const CombinedPlacement& placement,
                              const DeviceGrid& grid) {
  const SiteKeys keys(grid);
  // Recompute per-source-site merged nets from scratch.
  struct Terminals {
    int xmin = 1 << 20, xmax = -1, ymin = 1 << 20, ymax = -1;
    std::vector<int> site_keys;
  };
  std::unordered_map<int, Terminals> merged;
  for (std::size_t m = 0; m < placement.netlists.size(); ++m) {
    const auto& nl = placement.netlists[m];
    const auto& pl = placement.placements[m];
    for (const auto& net : nl.nets()) {
      const Site src = pl.site_of(net.driver);
      Terminals& t = merged[keys.key(src)];
      auto touch = [&t, &keys](const Site& s) {
        t.xmin = std::min<int>(t.xmin, s.x);
        t.xmax = std::max<int>(t.xmax, s.x);
        t.ymin = std::min<int>(t.ymin, s.y);
        t.ymax = std::max<int>(t.ymax, s.y);
        t.site_keys.push_back(keys.key(s));
      };
      touch(src);
      for (const auto sink : net.sinks) touch(pl.site_of(sink));
    }
  }
  // Sum per-net costs in sorted source-site order: the floating-point sum
  // depends on addend order, and unordered_map bucket order is not part of
  // any contract — this value reaches printed QoR via the benches.
  std::vector<int> source_keys;
  source_keys.reserve(merged.size());
  // mmflow-lint: ordered-ok(collects keys only; the order-sensitive FP sum below iterates the sorted copy)
  for (const auto& [key, t] : merged) source_keys.push_back(key);
  std::sort(source_keys.begin(), source_keys.end());
  double cost = 0.0;
  for (const int key : source_keys) {
    Terminals& t = merged[key];
    std::sort(t.site_keys.begin(), t.site_keys.end());
    t.site_keys.erase(std::unique(t.site_keys.begin(), t.site_keys.end()),
                      t.site_keys.end());
    cost += place::hpwl_cost(t.xmin, t.xmax, t.ymin, t.ymax, t.site_keys.size());
  }
  return cost;
}

std::size_t matched_connections(const CombinedPlacement& placement,
                                const DeviceGrid& grid) {
  const SiteKeys keys(grid);
  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::size_t m = 0; m < placement.netlists.size(); ++m) {
    const auto& nl = placement.netlists[m];
    const auto& pl = placement.placements[m];
    for (const auto& net : nl.nets()) {
      const int src = keys.key(pl.site_of(net.driver));
      for (const auto sink : net.sinks) {
        const int sk = keys.key(pl.site_of(sink));
        table[(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
               << 32) |
              static_cast<std::uint32_t>(sk)] |= 1u << m;
      }
    }
  }
  std::size_t matches = 0;
  // mmflow-lint: ordered-ok(commutative integer sum; every visit order yields the same total)
  for (const auto& [key, mask] : table) {
    matches += static_cast<std::size_t>(std::popcount(mask)) - 1;
  }
  return matches;
}

}  // namespace mmflow::core
