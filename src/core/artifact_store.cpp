#include "core/artifact_store.h"

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/perf.h"

namespace mmflow::core {

namespace {

// ---- format constants -------------------------------------------------------

constexpr std::uint32_t kMagic = 0x414D4D46;  // "FMMA" little-endian

/// The one entry directory: whole experiments, one entry per finished job.
constexpr char kExperimentDir[] = "experiments";

/// Human-maintained description of the payload field layout. Any change to
/// a serializer below MUST be reflected here — the hash of this string is
/// the schema hash in every entry header, so stale on-disk formats
/// invalidate cleanly instead of deserializing garbage.
constexpr char kSchemaDescription[] =
    "mmflow-artifact-store v1:"
    "site{u8 type,i16 x,i16 y,i16 sub};"
    "arch{i32 nx,i32 ny,i32 w,i32 k,i32 iocap,u8 sbox};"
    "placement{arch,u64 n,site[n]};"
    "placenetlist{blocks[u8 type,str,u8 reg],nets[u32 drv,u32[] sinks]};"
    "mapping{u32 luts,u32 pi,u32 po};"
    "sitespec{i32 modes,nets[str,site src,conns[site,u32 mask]]};"
    "routeproblem{i32 modes,nets[str,u32 src,conns[u32 sink,u32 mask]]};"
    "routeresult{u8 ok,i32 iters,conns[u32 net,u32 conn,u32 mask,"
    "u32[] nodes,u32[] edges]};"
    "lutcircuit{i32 k,str,str[] pis,blocks[str,refs[u8,u32],u64 truth,"
    "u8 ff,u8 init],pos[str,u8,u32]};"
    "merge{u32[][] l2t,u32[][] pi2t,u32[][] po2t,u32 ntlut,u32 ntio};"
    "experiment{arch region,i32 minw,modeimpl[],routeresult[] mdr_routing,"
    "routeproblem[] mdr_problems,u8 has_tunable,lutcircuit[] tmodes,merge,"
    "site[] tlut,site[] tio,sitespec dcs,routeproblem dcs_p,"
    "routeresult dcs_r,u64 total,u64 merged};"
    "modeimpl{netlist,mapping,placement,sitespec}";

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Thrown by the Reader on any structural violation; load() maps it (and
/// every domain-validation exception) to "invalid entry".
struct CorruptEntry : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- primitive byte I/O -----------------------------------------------------

/// Little-endian fixed-width append-only buffer.
struct Writer {
  std::string bytes;

  void u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes.append(s);
  }
};

/// Bounds-checked reader over one loaded entry; all reads throw CorruptEntry
/// on over-run (truncation tolerance) and element counts are sanity-checked
/// against the remaining bytes (a garbled length field must not trigger a
/// huge allocation).
struct Reader {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return size - pos; }
  void need(std::size_t n) const {
    if (remaining() < n) throw CorruptEntry("truncated entry");
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(u8()) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(data + pos, n);
    pos += n;
    return s;
  }
  /// Element count for a sequence whose elements occupy >= `min_bytes` each.
  std::size_t count(std::size_t min_bytes = 1) {
    const std::uint64_t n = u64();
    if (min_bytes != 0 && n > remaining() / min_bytes) {
      throw CorruptEntry("implausible element count");
    }
    return static_cast<std::size_t>(n);
  }
  std::vector<std::uint32_t> u32_vec() {
    std::vector<std::uint32_t> out(count(4));
    for (auto& v : out) v = u32();
    return out;
  }
};

void write_u32_vec(Writer& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u32(x);
}

// ---- domain serializers -----------------------------------------------------
//
// Readers lean on the domain types' own validation (MMFLOW_REQUIRE in
// constructors/adders): garbage that passes the checksum still throws while
// rebuilding and is treated as an invalid entry by load().

void write_site(Writer& w, const arch::Site& s) {
  w.u8(static_cast<std::uint8_t>(s.type));
  w.i16(s.x);
  w.i16(s.y);
  w.i16(s.sub);
}

arch::Site read_site(Reader& r) {
  arch::Site s;
  const std::uint8_t type = r.u8();
  if (type > 1) throw CorruptEntry("bad site type");
  s.type = static_cast<arch::Site::Type>(type);
  s.x = r.i16();
  s.y = r.i16();
  s.sub = r.i16();
  return s;
}

void write_arch(Writer& w, const arch::ArchSpec& a) {
  w.i32(a.nx);
  w.i32(a.ny);
  w.i32(a.channel_width);
  w.i32(a.k);
  w.i32(a.io_capacity);
  w.u8(static_cast<std::uint8_t>(a.switch_box));
}

arch::ArchSpec read_arch(Reader& r) {
  arch::ArchSpec a;
  a.nx = r.i32();
  a.ny = r.i32();
  a.channel_width = r.i32();
  a.k = r.i32();
  a.io_capacity = r.i32();
  const std::uint8_t sbox = r.u8();
  if (sbox > 1) throw CorruptEntry("bad switch box kind");
  a.switch_box = static_cast<arch::SwitchBoxKind>(sbox);
  a.validate();
  return a;
}

void write_placement(Writer& w, const place::Placement& p) {
  write_arch(w, p.grid().spec());
  w.u64(p.num_blocks());
  for (std::uint32_t b = 0; b < p.num_blocks(); ++b) write_site(w, p.site_of(b));
}

place::Placement read_placement(Reader& r) {
  const arch::ArchSpec spec = read_arch(r);
  const arch::DeviceGrid grid(spec);
  const std::size_t num_blocks = r.count(7);  // site = 7 bytes
  place::Placement p(grid, num_blocks);
  // assign() re-checks legality (in-range site, no double occupancy), so a
  // garbled payload throws here instead of producing an illegal placement.
  for (std::uint32_t b = 0; b < num_blocks; ++b) p.assign(b, read_site(r));
  return p;
}

void write_place_netlist(Writer& w, const place::PlaceNetlist& n) {
  w.u64(n.num_blocks());
  for (const auto& block : n.blocks()) {
    w.u8(static_cast<std::uint8_t>(block.type));
    w.str(block.name);
    w.u8(block.registered ? 1 : 0);
  }
  w.u64(n.num_nets());
  for (const auto& net : n.nets()) {
    w.u32(net.driver);
    write_u32_vec(w, net.sinks);
  }
}

place::PlaceNetlist read_place_netlist(Reader& r) {
  place::PlaceNetlist n;
  const std::size_t num_blocks = r.count(10);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::uint8_t type = r.u8();
    if (type > 1) throw CorruptEntry("bad block type");
    std::string name = r.str();
    const bool registered = r.u8() != 0;
    n.add_block(static_cast<place::PlaceBlock::Type>(type), std::move(name),
                registered);
  }
  const std::size_t num_nets = r.count(12);
  for (std::size_t i = 0; i < num_nets; ++i) {
    place::PlaceNet net;
    net.driver = r.u32();
    net.sinks = r.u32_vec();
    n.add_net(std::move(net));
  }
  return n;
}

void write_mapping(Writer& w, const place::LutPlaceMapping& m) {
  w.u32(m.num_luts);
  w.u32(m.pi_base);
  w.u32(m.po_base);
}

place::LutPlaceMapping read_mapping(Reader& r) {
  place::LutPlaceMapping m;
  m.num_luts = r.u32();
  m.pi_base = r.u32();
  m.po_base = r.u32();
  return m;
}

void write_site_spec(Writer& w, const SiteRouteSpec& s) {
  w.i32(s.num_modes);
  w.u64(s.nets.size());
  for (const auto& net : s.nets) {
    w.str(net.name);
    write_site(w, net.source);
    w.u64(net.conns.size());
    for (const auto& conn : net.conns) {
      write_site(w, conn.sink);
      w.u32(conn.modes);
    }
  }
}

SiteRouteSpec read_site_spec(Reader& r) {
  SiteRouteSpec s;
  s.num_modes = r.i32();
  s.nets.resize(r.count(23));
  for (auto& net : s.nets) {
    net.name = r.str();
    net.source = read_site(r);
    net.conns.resize(r.count(11));
    for (auto& conn : net.conns) {
      conn.sink = read_site(r);
      conn.modes = r.u32();
    }
  }
  return s;
}

void write_route_problem(Writer& w, const route::RouteProblem& p) {
  w.i32(p.num_modes);
  w.u64(p.nets.size());
  for (const auto& net : p.nets) {
    w.str(net.name);
    w.u32(net.source_node);
    w.u64(net.conns.size());
    for (const auto& conn : net.conns) {
      w.u32(conn.sink_node);
      w.u32(conn.modes);
    }
  }
}

route::RouteProblem read_route_problem(Reader& r) {
  route::RouteProblem p;
  p.num_modes = r.i32();
  p.nets.resize(r.count(20));
  for (auto& net : p.nets) {
    net.name = r.str();
    net.source_node = r.u32();
    net.conns.resize(r.count(8));
    for (auto& conn : net.conns) {
      conn.sink_node = r.u32();
      conn.modes = r.u32();
    }
  }
  return p;
}

void write_route_result(Writer& w, const route::RouteResult& res) {
  w.u8(res.success ? 1 : 0);
  w.i32(res.iterations);
  w.u64(res.conns.size());
  for (const auto& conn : res.conns) {
    w.u32(conn.net);
    w.u32(conn.conn);
    w.u32(conn.modes);
    write_u32_vec(w, conn.nodes);
    write_u32_vec(w, conn.edges);
  }
}

route::RouteResult read_route_result(Reader& r) {
  route::RouteResult res;
  res.success = r.u8() != 0;
  res.iterations = r.i32();
  res.conns.resize(r.count(28));
  for (auto& conn : res.conns) {
    conn.net = r.u32();
    conn.conn = r.u32();
    conn.modes = r.u32();
    conn.nodes = r.u32_vec();
    conn.edges = r.u32_vec();
  }
  return res;
}

void write_lut_circuit(Writer& w, const techmap::LutCircuit& c) {
  w.i32(c.k());
  w.str(c.name());
  w.u64(c.num_pis());
  for (const auto& pi : c.pi_names()) w.str(pi);
  w.u64(c.num_blocks());
  for (const auto& block : c.blocks()) {
    w.str(block.name);
    w.u64(block.inputs.size());
    for (const auto& ref : block.inputs) {
      w.u8(static_cast<std::uint8_t>(ref.kind));
      w.u32(ref.index);
    }
    w.u64(block.truth);
    w.u8(block.has_ff ? 1 : 0);
    w.u8(block.ff_init ? 1 : 0);
  }
  w.u64(c.num_pos());
  for (const auto& po : c.pos()) {
    w.str(po.name);
    w.u8(static_cast<std::uint8_t>(po.driver.kind));
    w.u32(po.driver.index);
  }
}

techmap::Ref read_ref(Reader& r) {
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw CorruptEntry("bad ref kind");
  return techmap::Ref{static_cast<techmap::Ref::Kind>(kind), r.u32()};
}

techmap::LutCircuit read_lut_circuit(Reader& r) {
  const int k = r.i32();
  if (k < 1 || k > 6) throw CorruptEntry("bad lut size");
  techmap::LutCircuit c(k, r.str());
  const std::size_t num_pis = r.count(8);
  for (std::size_t i = 0; i < num_pis; ++i) c.add_pi(r.str());
  const std::size_t num_blocks = r.count(20);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    techmap::LutCircuit::Block block;
    block.name = r.str();
    block.inputs.resize(r.count(5));
    for (auto& ref : block.inputs) ref = read_ref(r);
    block.truth = r.u64();
    block.has_ff = r.u8() != 0;
    block.ff_init = r.u8() != 0;
    c.add_block(std::move(block));
  }
  const std::size_t num_pos = r.count(13);
  for (std::size_t p = 0; p < num_pos; ++p) {
    std::string name = r.str();
    c.add_po(name, read_ref(r));
  }
  c.validate();
  return c;
}

void write_u32_matrix(Writer& w, const std::vector<std::vector<std::uint32_t>>& m) {
  w.u64(m.size());
  for (const auto& row : m) write_u32_vec(w, row);
}

std::vector<std::vector<std::uint32_t>> read_u32_matrix(Reader& r) {
  std::vector<std::vector<std::uint32_t>> m(r.count(8));
  for (auto& row : m) row = r.u32_vec();
  return m;
}

/// The Tunable circuit is persisted as the exact inputs of its (fully
/// deterministic) constructor: the mode circuits and the merge assignment.
/// Rebuilding through the constructor re-runs all of its validation and
/// pin assignment, so a reloaded circuit is bit-identical to the computed
/// one — and a garbled assignment throws instead of deserializing.
void write_tunable(Writer& w, const tunable::TunableCircuit& tc) {
  const auto& modes = tc.modes();
  w.u64(modes.size());
  for (const auto& mode : modes) write_lut_circuit(w, mode);
  tunable::MergeAssignment assignment;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const int mode = static_cast<int>(m);
    std::vector<std::uint32_t> luts(modes[m].num_blocks());
    for (std::uint32_t l = 0; l < luts.size(); ++l) {
      luts[l] = tc.tlut_of_lut(mode, l);
    }
    std::vector<std::uint32_t> pis(modes[m].num_pis());
    for (std::uint32_t p = 0; p < pis.size(); ++p) {
      pis[p] = tc.tio_of_pi(mode, p);
    }
    std::vector<std::uint32_t> pos(modes[m].num_pos());
    for (std::uint32_t p = 0; p < pos.size(); ++p) {
      pos[p] = tc.tio_of_po(mode, p);
    }
    assignment.lut_to_tlut.push_back(std::move(luts));
    assignment.pi_to_tio.push_back(std::move(pis));
    assignment.po_to_tio.push_back(std::move(pos));
  }
  write_u32_matrix(w, assignment.lut_to_tlut);
  write_u32_matrix(w, assignment.pi_to_tio);
  write_u32_matrix(w, assignment.po_to_tio);
  w.u32(static_cast<std::uint32_t>(tc.num_tluts()));
  w.u32(static_cast<std::uint32_t>(tc.num_tios()));
}

tunable::TunableCircuit read_tunable(Reader& r) {
  std::vector<techmap::LutCircuit> modes;
  const std::size_t num_modes = r.count(30);
  modes.reserve(num_modes);
  for (std::size_t m = 0; m < num_modes; ++m) {
    modes.push_back(read_lut_circuit(r));
  }
  tunable::MergeAssignment assignment;
  assignment.lut_to_tlut = read_u32_matrix(r);
  assignment.pi_to_tio = read_u32_matrix(r);
  assignment.po_to_tio = read_u32_matrix(r);
  assignment.num_tluts = r.u32();
  assignment.num_tios = r.u32();
  return tunable::TunableCircuit(std::move(modes), assignment);
}

void write_mode_impl(Writer& w, const ModeImpl& impl) {
  write_place_netlist(w, impl.netlist);
  write_mapping(w, impl.mapping);
  write_placement(w, impl.placement);
  write_site_spec(w, impl.route_spec);
}

ModeImpl read_mode_impl(Reader& r) {
  place::PlaceNetlist netlist = read_place_netlist(r);
  place::LutPlaceMapping mapping = read_mapping(r);
  place::Placement placement = read_placement(r);
  SiteRouteSpec spec = read_site_spec(r);
  return ModeImpl{std::move(netlist), mapping, std::move(placement),
                  std::move(spec)};
}

void write_experiment(Writer& w, const MultiModeExperiment& e) {
  write_arch(w, e.region);
  w.i32(e.min_width);
  w.u64(e.mdr.size());
  for (const auto& impl : e.mdr) write_mode_impl(w, impl);
  w.u64(e.mdr_routing.size());
  for (const auto& res : e.mdr_routing) write_route_result(w, res);
  w.u64(e.mdr_problems.size());
  for (const auto& p : e.mdr_problems) write_route_problem(w, p);
  w.u8(e.tunable.has_value() ? 1 : 0);
  if (e.tunable.has_value()) write_tunable(w, *e.tunable);
  w.u64(e.tlut_site.size());
  for (const auto& s : e.tlut_site) write_site(w, s);
  w.u64(e.tio_site.size());
  for (const auto& s : e.tio_site) write_site(w, s);
  write_site_spec(w, e.dcs_route_spec);
  write_route_problem(w, e.dcs_problem);
  write_route_result(w, e.dcs_routing);
  w.u64(e.total_mode_connections);
  w.u64(e.merged_connections);
}

MultiModeExperiment read_experiment(Reader& r) {
  MultiModeExperiment e;
  e.region = read_arch(r);
  e.min_width = r.i32();
  const std::size_t num_mdr = r.count(30);
  e.mdr.reserve(num_mdr);
  for (std::size_t m = 0; m < num_mdr; ++m) e.mdr.push_back(read_mode_impl(r));
  e.mdr_routing.resize(r.count(13));
  for (auto& res : e.mdr_routing) res = read_route_result(r);
  e.mdr_problems.resize(r.count(12));
  for (auto& p : e.mdr_problems) p = read_route_problem(r);
  if (r.u8() != 0) e.tunable.emplace(read_tunable(r));
  e.tlut_site.resize(r.count(7));
  for (auto& s : e.tlut_site) s = read_site(r);
  e.tio_site.resize(r.count(7));
  for (auto& s : e.tio_site) s = read_site(r);
  e.dcs_route_spec = read_site_spec(r);
  e.dcs_problem = read_route_problem(r);
  e.dcs_routing = read_route_result(r);
  e.total_mode_connections = r.u64();
  e.merged_connections = r.u64();
  if (r.remaining() != 0) throw CorruptEntry("trailing bytes");
  return e;
}

// ---- entry framing ----------------------------------------------------------

void write_header(Writer& w, const FlowKey& key, const std::string& payload) {
  w.u32(kMagic);
  w.u32(ArtifactStore::kFormatVersion);
  w.u64(ArtifactStore::schema_hash());
  w.u64(key.netlist);
  w.u64(key.arch);
  w.u64(key.options);
  w.u64(key.seed);
  w.u32(key.engine);
  w.i32(key.width);
  w.u64(key.variant);
  w.u64(payload.size());
  w.u64(fnv1a(payload.data(), payload.size()));
}

/// Validates the framing of a loaded entry and positions `r` at the payload
/// start. Throws CorruptEntry on any mismatch.
void check_header(Reader& r, const FlowKey& key) {
  if (r.u32() != kMagic) throw CorruptEntry("bad magic");
  if (r.u32() != ArtifactStore::kFormatVersion) {
    throw CorruptEntry("store format version mismatch");
  }
  if (r.u64() != ArtifactStore::schema_hash()) {
    throw CorruptEntry("schema hash mismatch");
  }
  FlowKey stored;
  stored.netlist = r.u64();
  stored.arch = r.u64();
  stored.options = r.u64();
  stored.seed = r.u64();
  stored.engine = r.u32();
  stored.width = r.i32();
  stored.variant = r.u64();
  if (!(stored == key)) throw CorruptEntry("key mismatch");
  const std::uint64_t payload_size = r.u64();
  const std::uint64_t checksum = r.u64();
  if (payload_size != r.remaining()) throw CorruptEntry("payload size mismatch");
  if (checksum != fnv1a(r.data + r.pos, r.remaining())) {
    throw CorruptEntry("payload checksum mismatch");
  }
}

/// The filename spells out the full FlowKey — the name *is* the address, so
/// no filename collision can alias two distinct keys.
std::string key_filename(const FlowKey& key) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%016llx-%016llx-%016llx-%016llx-e%u-w%d-v%016llx.bin",
                static_cast<unsigned long long>(key.netlist),
                static_cast<unsigned long long>(key.arch),
                static_cast<unsigned long long>(key.options),
                static_cast<unsigned long long>(key.seed), key.engine,
                key.width, static_cast<unsigned long long>(key.variant));
  return buf;
}

}  // namespace

// ---- ArtifactStore ----------------------------------------------------------

std::uint64_t ArtifactStore::schema_hash() {
  static const std::uint64_t hash =
      fnv1a(kSchemaDescription, sizeof(kSchemaDescription) - 1);
  return hash;
}

ArtifactStore::ArtifactStore(std::filesystem::path root)
    : root_(std::move(root)) {
  // Best-effort: an uncreatable directory leaves a store whose reads miss
  // and whose writes fail gracefully (counted, never thrown).
  std::error_code ec;
  const std::filesystem::path dir = root_ / kExperimentDir;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    MMFLOW_WARN("artifact store: cannot create " << dir.string() << " ("
                                                 << ec.message() << ")");
  }
}

std::optional<MultiModeExperiment> ArtifactStore::load_experiment(
    const FlowKey& key) const {
  const std::filesystem::path path = root_ / kExperimentDir / key_filename(key);
  std::string bytes;
  {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) {
      MMFLOW_PERF_ADD("flowcache.disk_misses", 1);
      return std::nullopt;
    }
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      MMFLOW_PERF_ADD("flowcache.disk_invalid", 1);
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    bytes = std::move(buffer).str();
  }
  try {
    Reader r{bytes.data(), bytes.size(), 0};
    check_header(r, key);
    MultiModeExperiment experiment = read_experiment(r);
    MMFLOW_PERF_ADD("flowcache.disk_hits", 1);
    return experiment;
  } catch (const std::exception& e) {
    // Truncated/garbled entries and payloads that fail domain validation are
    // misses, never aborts: the flow recomputes and rewrites the entry.
    MMFLOW_PERF_ADD("flowcache.disk_invalid", 1);
    MMFLOW_WARN("artifact store: invalid entry " << path.string() << " ("
                                                 << e.what() << ")");
    return std::nullopt;
  }
}

bool ArtifactStore::save_experiment(const FlowKey& key,
                                    const MultiModeExperiment& experiment) {
  Writer payload;
  write_experiment(payload, experiment);
  Writer entry;
  write_header(entry, key, payload.bytes);
  entry.bytes.append(payload.bytes);

  const std::filesystem::path final_path =
      root_ / kExperimentDir / key_filename(key);
  // One commit at a time per store: the tmp-name counter stays race-free and
  // parallel batch workers' writes land in a deterministic serial order.
  const std::lock_guard<std::mutex> lock(commit_mutex_);
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp-" + std::to_string(::getpid()) + "-" +
      std::to_string(tmp_counter_++);
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    os.write(entry.bytes.data(),
             static_cast<std::streamsize>(entry.bytes.size()));
    os.flush();
    if (!os) {
      MMFLOW_PERF_ADD("flowcache.disk_write_errors", 1);
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  // Atomic publish: readers only ever see whole entries; concurrent writers
  // (threads or processes) race benignly — identical bytes, last one wins.
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    MMFLOW_PERF_ADD("flowcache.disk_write_errors", 1);
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  MMFLOW_PERF_ADD("flowcache.disk_writes", 1);
  return true;
}

std::size_t ArtifactStore::size() const {
  std::size_t entries = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_ / kExperimentDir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".bin") ++entries;
  }
  return entries;
}

}  // namespace mmflow::core
