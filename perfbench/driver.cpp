// perfbench_driver: the compiled half of the BrickSim benchmark.
//
//   perfbench_driver info
//       build provenance (optimized?, NDEBUG?, compiler) as JSON.
//   perfbench_driver kernel512 --kernels K --jobs J --out F [--cache D]
//       the untraced kernel512 workload: harness::run_sweep on one config
//       at a time, as a library user would call it; per-kernel seconds and
//       Measurement digests to F (the sweeps are stored under D afterwards,
//       outside the timed region, for the traced run to compare against).
//   perfbench_driver trace --out DIR [...]
//       the traced layer walk: repeats a workload's work through each
//       layer's public function, with a span around every call, checks the
//       result against the untraced run's sweeps, and writes per-layer
//       metrics, a Chrome trace and the self-time / per-config tables.
//   perfbench_driver client --socket S --requests F --conns C --seconds T
//                           --out F
//       closed-loop serve client: C connections, each sending its next
//       request when the previous reply arrived; checks every reply.
//   perfbench_driver selftest
//       checks the reply classifier that feeds the failure count.
//
// perfbench/run.py drives all of this; see its header for the workloads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/brickcheck.h"
#include "analysis/brickperf.h"
#include "arch/arch.h"
#include "codegen/codegen.h"
#include "common/json.h"
#include "common/threadpool.h"
#include "harness/autotune.h"
#include "harness/harness.h"
#include "harness/registry.h"
#include "harness/sweepcache.h"
#include "ir/regalloc.h"
#include "ir/schedule.h"
#include "memsim/hierarchy.h"
#include "model/launcher.h"
#include "profiler/profiler.h"
#include "roofline/roofline.h"
#include "serve/server.h"
#include "simt/execplan.h"
#include "spans.h"

namespace json = bricksim::json;
namespace harness = bricksim::harness;
namespace model = bricksim::model;
namespace codegen = bricksim::codegen;
namespace dsl = bricksim::dsl;
namespace simt = bricksim::simt;
using bricksim::Vec3;
using perfbench::Scope;
using perfbench::timed;

namespace {

// --- small helpers -----------------------------------------------------------

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> out;
  for (int a = first; a < argc; ++a) {
    const std::string tok = argv[a];
    if (tok.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument: " + tok);
    if (a + 1 >= argc) throw std::runtime_error("missing value for " + tok);
    out[tok.substr(2)] = argv[++a];
  }
  return out;
}

std::string flag(const std::map<std::string, std::string>& f,
                 const std::string& key, const std::string& def = "") {
  const auto it = f.find(key);
  return it == f.end() ? def : it->second;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(s);
  while (std::getline(is, cur, sep))
    if (!cur.empty()) out.push_back(cur);
  return out;
}

/// FNV-1a 64, as 16 hex digits: the digest of every golden output.
std::string fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  return v[k];
}

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- sweep identities --------------------------------------------------------

const model::Platform& find_platform(const std::vector<model::Platform>& pfs,
                                     const std::string& label) {
  for (const auto& pf : pfs)
    if (pf.label() == label) return pf;
  throw std::runtime_error("unknown platform: " + label);
}

codegen::Variant variant_from_name(const std::string& name) {
  for (const auto v : {codegen::Variant::Array, codegen::Variant::ArrayCodegen,
                       codegen::Variant::BricksCodegen})
    if (codegen::variant_name(v) == name) return v;
  throw std::runtime_error("unknown variant: " + name);
}

Vec3 cube(int n) { return {n, n, n}; }

constexpr int kKernelN = 512;  ///< kernel512's domain extent

/// "label;stencil;variant" at 512^3: the one-config sweep kernel512 runs.
harness::SweepConfig kernel_config(const std::string& spec) {
  const auto parts = split(spec, ';');
  if (parts.size() != 3) throw std::runtime_error("bad kernel spec: " + spec);
  harness::SweepConfig c;
  c.domain = cube(kKernelN);
  c.platforms = {find_platform(model::paper_platforms(), parts[0])};
  c.stencils.clear();
  for (const auto& st : dsl::Stencil::paper_catalog())
    if (st.name() == parts[1]) c.stencils.push_back(st);
  if (c.stencils.empty()) throw std::runtime_error("unknown stencil: " + spec);
  c.variants = {variant_from_name(parts[2])};
  return c;
}

/// "main:N" / "cpu:N": the sweeps the registry's SweepProvider builds.
harness::SweepConfig named_sweep(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos)
    throw std::runtime_error("bad sweep spec: " + spec);
  harness::SweepConfig base;
  base.domain = cube(std::stoi(spec.substr(colon + 1)));
  const std::string kind = spec.substr(0, colon);
  if (kind == "main") return harness::SweepProvider::main_config(base);
  if (kind == "cpu") return harness::SweepProvider::cpu_config(base);
  throw std::runtime_error("bad sweep kind: " + spec);
}

std::string config_key(const model::Platform& pf, const dsl::Stencil& st,
                       codegen::Variant v, const Vec3& d,
                       const std::string& tag = "") {
  return pf.label() + " " + st.name() + " " + codegen::variant_name(v) +
         " n=" + std::to_string(d.i) + (tag.empty() ? "" : " [" + tag + "]");
}

// --- info --------------------------------------------------------------------

int cmd_info() {
  json::Value v = json::Value::object();
#ifdef __OPTIMIZE__
  v["optimized"] = true;
#else
  v["optimized"] = false;
#endif
#ifdef NDEBUG
  v["ndebug"] = true;
#else
  v["ndebug"] = false;
#endif
  v["compiler"] = std::string("gcc ") + __VERSION__;
  v["hardware_threads"] = bricksim::default_jobs();
  std::cout << v.dump() << "\n";
  return 0;
}

// --- kernel512 (untraced) ----------------------------------------------------

int cmd_kernel512(const std::map<std::string, std::string>& f) {
  const int jobs = std::stoi(flag(f, "jobs", "0"));
  const std::string cache = flag(f, "cache");
  json::Value out = json::Value::array();
  std::vector<harness::Sweep> sweeps;
  for (const auto& spec : split(flag(f, "kernels"), '|')) {
    harness::SweepConfig c = kernel_config(spec);
    c.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    harness::Sweep s = harness::run_sweep(c);
    const double secs = secs_since(t0);
    json::Value row = json::Value::object();
    row["kernel"] = spec;
    row["seconds"] = secs;
    row["failures"] = static_cast<long>(s.failures.size());
    row["digest"] = s.measurements.size() == 1
                        ? fnv1a(bricksim::profiler::to_json(
                                    s.measurements.front())
                                    .dump())
                        : std::string("missing");
    out.push_back(row);
    sweeps.push_back(std::move(s));
  }
  if (!cache.empty())
    for (const auto& s : sweeps) harness::store_cached_sweep(cache, s);
  write_file(flag(f, "out"), out.dump(1) + "\n");
  return 0;
}

// --- serve client ------------------------------------------------------------

struct Request {
  std::string key;     ///< golden-digest key, e.g. "experiment:fig3:64"
  std::string body;    ///< the request frame
  bool experiment = false;
  std::string expect;  ///< golden digest; empty = record only
};

std::vector<Request> load_requests(const std::string& path) {
  const json::Value doc = json::Value::parse(read_file(path));
  std::vector<Request> out;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const json::Value& r = doc[i];
    Request q;
    q.key = r.at("key").as_string();
    q.body = r.at("req").dump();
    q.experiment = r.at("req").at("op").as_string() == "experiment";
    q.expect = r.contains("expect") ? r.at("expect").as_string() : "";
    out.push_back(std::move(q));
  }
  if (out.empty()) throw std::runtime_error("no requests in " + path);
  return out;
}

enum class Verdict { Ok, NotOk, Mismatch };

/// Classifies one reply: a reply that is not ok, or that needed a cold
/// simulation (the workload is warm by construction), is NotOk; an ok reply
/// whose digest differs from the golden one is Mismatch.
Verdict classify_reply(const json::Value& reply, bool experiment,
                       const std::string& expect, std::string* digest) {
  if (!reply.is_object() || !reply.contains("ok") || !reply.at("ok").as_bool())
    return Verdict::NotOk;
  if (!reply.contains("status")) return Verdict::NotOk;
  const std::string status = reply.at("status").as_string();
  if (experiment) {
    if (status != "ok" || !reply.contains("output")) return Verdict::NotOk;
    *digest = fnv1a(reply.at("output").as_string());
  } else {
    if (status != "warm_memo" && status != "warm_disk" &&
        status != "coalesced")
      return Verdict::NotOk;
    *digest = reply.at("fingerprint").as_string() + ":" +
              std::to_string(reply.at("measurements").as_long());
  }
  return !expect.empty() && *digest != expect ? Verdict::Mismatch
                                              : Verdict::Ok;
}

struct ClientResult {
  long sent = 0, non_ok = 0, mismatch = 0;
  double elapsed_s = 0;
  std::vector<double> lat_ms;
  std::map<std::string, std::string> observed;  ///< first digest per key
  std::vector<std::string> bad;  ///< the first few failing replies
};

/// Closed loop over `conns` connections: connection c sends requests c,
/// c + conns, ... (wrapping), each after the previous reply.  Stops after
/// `seconds` (when > 0) or `max_requests` in total (when > 0).
ClientResult run_client(const std::string& socket, const std::vector<Request>& reqs,
                        int conns, double seconds, long max_requests) {
  ClientResult total;
  std::mutex mu;
  const auto t0 = std::chrono::steady_clock::now();
  const long per_conn = max_requests > 0 ? (max_requests + conns - 1) / conns : 0;
  auto worker = [&](int c) {
    ClientResult mine;
    int fd = -1;
    std::size_t next = static_cast<std::size_t>(c);
    for (long k = 0;; ++k) {
      if (per_conn > 0 && k >= per_conn) break;
      if (seconds > 0 && secs_since(t0) >= seconds) break;
      const Request& r = reqs[next % reqs.size()];
      next += static_cast<std::size_t>(conns);
      ++mine.sent;
      const auto q0 = std::chrono::steady_clock::now();
      std::string digest;
      std::string reply_text;
      Verdict v = Verdict::NotOk;
      try {
        if (fd < 0) fd = bricksim::serve::connect_client(socket);
        bricksim::serve::write_frame(fd, r.body);
        const auto frame = bricksim::serve::read_frame(fd);
        if (!frame) throw std::runtime_error("connection closed");
        reply_text = *frame;
        v = classify_reply(json::Value::parse(*frame), r.experiment, r.expect,
                           &digest);
      } catch (const std::exception& e) {
        reply_text = e.what();
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      mine.lat_ms.push_back(secs_since(q0) * 1e3);
      if (v == Verdict::NotOk) ++mine.non_ok;
      if (v == Verdict::Mismatch) ++mine.mismatch;
      if (v != Verdict::Ok && mine.bad.size() < 3)
        mine.bad.push_back(r.key + ": " + reply_text.substr(0, 300));
      if (!digest.empty()) mine.observed.emplace(r.key, digest);
    }
    if (fd >= 0) ::close(fd);
    std::lock_guard<std::mutex> lock(mu);
    total.sent += mine.sent;
    total.non_ok += mine.non_ok;
    total.mismatch += mine.mismatch;
    total.lat_ms.insert(total.lat_ms.end(), mine.lat_ms.begin(),
                        mine.lat_ms.end());
    total.observed.insert(mine.observed.begin(), mine.observed.end());
    total.bad.insert(total.bad.end(), mine.bad.begin(), mine.bad.end());
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  total.elapsed_s = secs_since(t0);
  return total;
}

json::Value client_json(const ClientResult& r) {
  json::Value v = json::Value::object();
  v["sent"] = r.sent;
  v["non_ok"] = r.non_ok;
  v["mismatch"] = r.mismatch;
  v["elapsed_s"] = r.elapsed_s;
  v["p50_ms"] = percentile(r.lat_ms, 0.50);
  v["p99_ms"] = percentile(r.lat_ms, 0.99);
  json::Value obs = json::Value::object();
  for (const auto& [k, d] : r.observed) obs[k] = d;
  v["observed"] = obs;
  json::Value bad = json::Value::array();
  for (const auto& b : r.bad) bad.push_back(b);
  v["bad"] = bad;
  return v;
}

int cmd_client(const std::map<std::string, std::string>& f) {
  const auto reqs = load_requests(flag(f, "requests"));
  const ClientResult r =
      run_client(flag(f, "socket"), reqs, std::stoi(flag(f, "conns", "1")),
                 std::stod(flag(f, "seconds")), 0);
  write_file(flag(f, "out"), client_json(r).dump(1) + "\n");
  return 0;
}

// --- traced layer walk -------------------------------------------------------

/// One launch to walk through the layers.
struct Item {
  const model::Platform* pf = nullptr;
  const dsl::Stencil* st = nullptr;
  codegen::Variant variant = codegen::Variant::Array;
  codegen::Options opts;
  Vec3 domain{};
  std::string key;
  int sweep = -1;  ///< index into the walked sweeps; -1 = no sweep slot
  long slot = 0;   ///< measurement slot within that sweep
};

struct ItemOut {
  bricksim::profiler::Measurement m;
  int lump = 1;
  double replay_s = 0;
};

/// The launcher's pipeline, one layer call at a time (model/launcher.cpp
/// Launcher::prepare_impl + Machine::run, counters-only).  lower and
/// regalloc are also called standalone with prepare's own arguments, so
/// their cost is visible; prepare then repeats them internally.
ItemOut walk_item(const Item& it, const std::string& shard_dir,
                  const harness::SweepConfig* cfg) {
  Scope span("harness.config", it.key);
  const auto& gpu = it.pf->gpu;
  const auto& pm = it.pf->pm;
  const bool naive = it.variant == codegen::Variant::Array;
  codegen::LoweringCosts costs;
  costs.addr_ops_per_load =
      naive ? pm.addr_ops_per_load_naive : pm.addr_ops_per_load_codegen;
  costs.addr_ops_per_store =
      naive ? pm.addr_ops_per_store_naive : pm.addr_ops_per_store_codegen;
  codegen::LoweredKernel lowered = timed("codegen.lower", it.key, [&] {
    auto l = codegen::lower(*it.st, it.variant, gpu.simd_width, it.opts, costs);
    if (it.opts.reorder_for_pressure)
      l.program = bricksim::ir::schedule_for_pressure(l.program).program;
    return l;
  });
  const int budget = std::max(
      8, static_cast<int>(gpu.regs_per_lane * pm.reg_budget_fraction));
  timed("ir.regalloc", it.key, [&] {
    return bricksim::ir::allocate_registers(lowered.program, budget);
  });

  model::Launcher launcher(it.domain);
  launcher.set_check_mode(bricksim::analysis::CheckMode::Off);
  model::PreparedLaunch prep = timed("model.prepare", it.key, [&] {
    return launcher.prepare(*it.st, it.variant, *it.pf, it.opts);
  });
  const auto check = timed("analysis.brickcheck", it.key, [&] {
    return bricksim::analysis::check(*prep.program, prep.geom);
  });
  bricksim::analysis::KernelAttrs attrs;
  attrs.domain = it.domain;
  attrs.read_streams = prep.read_streams;
  attrs.bw_derate = pm.bw_derate;
  attrs.streaming_stores = pm.streaming_stores;
  attrs.bypass_l2_unaligned_vloads = pm.bypass_l2_unaligned_vloads;
  attrs.regs_used = prep.regs_used;
  attrs.reg_budget = budget;
  timed("analysis.brickperf", it.key, [&] {
    return bricksim::analysis::analyze(*prep.program, prep.geom, gpu, attrs);
  });

  std::optional<simt::ExecPlan> plan;
  timed("simt.decode", it.key, [&] {
    plan.emplace(prep.kernel, gpu, simt::ExecMode::CountersOnly);
    return 0;
  });
  // One hierarchy per thread, rebuilt only when the architecture changes
  // (the launcher's Machine reuse); replay resets it at kernel entry.
  thread_local std::unique_ptr<bricksim::memsim::MemoryHierarchy> hier;
  thread_local std::optional<bricksim::arch::GpuArch> hier_arch;
  if (!hier || !(*hier_arch == gpu)) {
    hier = std::make_unique<bricksim::memsim::MemoryHierarchy>(gpu);
    hier_arch = gpu;
  }
  const double r0 = perfbench::SpanLog::instance().now();
  model::LaunchResult res;
  res.report = timed("simt.replay", it.key, [&] { return plan->replay(*hier); });
  ItemOut out;
  out.replay_s = perfbench::SpanLog::instance().now() - r0;
  out.lump = plan->lump_factor();
  res.inst_stats = prep.inst_stats;
  res.regs_used = prep.regs_used;
  res.spill_slots = prep.spill_slots;
  res.used_scatter = prep.used_scatter;
  res.read_streams = prep.read_streams;
  res.normalized_flops = prep.normalized_flops;
  res.check_stats = check.stats;
  out.m = bricksim::profiler::measure(*it.st, it.variant, *it.pf, it.domain,
                                      res);
  if (cfg != nullptr && !shard_dir.empty())
    timed("harness.shard_write", it.key, [&] {
      harness::store_shard(shard_dir, *cfg, it.slot, out.m);
      return 0;
    });
  return out;
}

/// The all64 extras: the registry's ablation_codegen and pvc_subgroup
/// launches (registry.cpp), walked like sweep configs but without a slot.
void add_all64_extras(Vec3 domain, std::vector<model::Platform>& pf_store,
                      std::vector<dsl::Stencil>& st_store,
                      std::vector<Item>& items) {
  const auto metric = model::metric_platforms();
  pf_store = {metric[0], metric[2], metric[4]};
  bricksim::arch::GpuArch pvc16 = bricksim::arch::make_pvc_stack();
  bricksim::arch::GpuArch pvc32 = bricksim::arch::make_pvc_stack();
  pvc32.simd_width = 32;
  pvc32.name = "PVC-Stack-SG32";
  pf_store.push_back({pvc16, model::model_for(model::PmKind::SYCL, pvc16)});
  pf_store.push_back({pvc32, model::model_for(model::PmKind::SYCL, pvc32)});
  st_store = dsl::Stencil::paper_catalog();
  st_store.push_back(dsl::Stencil::star(2));
  st_store.push_back(dsl::Stencil::cube(2));
  const std::size_t star2 = st_store.size() - 2, cube2 = st_store.size() - 1;

  codegen::Options no_cse, gather, scatter, gather_sched;
  no_cse.enable_cse = false;
  gather.force_gather = true;
  scatter.force_scatter = true;
  gather_sched.force_gather = true;
  gather_sched.reorder_for_pressure = true;
  const std::vector<std::pair<codegen::Variant, codegen::Options>> configs = {
      {codegen::Variant::Array, {}},
      {codegen::Variant::BricksCodegen, {}},
      {codegen::Variant::BricksCodegen, no_cse},
      {codegen::Variant::BricksCodegen, gather},
      {codegen::Variant::BricksCodegen, gather_sched},
      {codegen::Variant::BricksCodegen, scatter}};
  for (std::size_t p = 0; p < 3; ++p)
    for (const std::size_t s : {star2, cube2})
      for (std::size_t c = 0; c < configs.size(); ++c) {
        Item it;
        it.pf = &pf_store[p];
        it.st = &st_store[s];
        it.variant = configs[c].first;
        it.opts = configs[c].second;
        it.domain = domain;
        it.key = config_key(*it.pf, *it.st, it.variant, domain,
                            "ablation " + std::to_string(c));
        items.push_back(it);
      }
  for (std::size_t s = 0; s < star2; ++s)
    for (const std::size_t p : {std::size_t{3}, std::size_t{4}}) {
      Item it;
      it.pf = &pf_store[p];
      it.st = &st_store[s];
      it.variant = codegen::Variant::BricksCodegen;
      it.domain = domain;
      it.key = config_key(*it.pf, *it.st, it.variant, domain, "subgroup");
      items.push_back(it);
    }
}

std::string sweep_json(const harness::Sweep& s) {
  return harness::sweep_to_json(s).dump();
}

/// Serve layer: an embedded server over a warm cache (the untraced run's
/// unless --serve-cache names another), a fixed number of closed-loop
/// requests, then the counters op.
json::Value serve_phase(const std::map<std::string, std::string>& f,
                        const std::string& ref_cache, int jobs) {
  const auto reqs = load_requests(flag(f, "requests"));
  bricksim::serve::ServerOptions so;
  so.socket_path = flag(f, "socket");
  so.cache_dir = flag(f, "serve-cache", ref_cache);
  so.workers = jobs;
  so.memo_bytes =
      static_cast<std::size_t>(std::stol(flag(f, "memo-bytes", "0")));
  bricksim::serve::Server server(so);
  server.start();
  std::thread th([&] { server.run(); });
  ClientResult cr;
  json::Value counters;
  try {
    cr = timed("serve.client", "", [&] {
      return run_client(so.socket_path, reqs, std::stoi(flag(f, "conns", "1")),
                        0, std::stol(flag(f, "serve-requests", "1000")));
    });
    counters = timed("serve.counters", "", [&] {
      json::Value req = json::Value::object();
      req["op"] = "counters";
      return bricksim::serve::client_call(so.socket_path, req);
    });
  } catch (...) {
    server.stop();
    th.join();
    throw;
  }
  server.stop();
  th.join();
  json::Value out = client_json(cr);
  out["counters"] = counters.at("counters");
  return out;
}

/// The per-layer metrics the walk measures directly (run.py derives the
/// ones that need the untraced run's wall time).
json::Value layer_metrics(const std::vector<perfbench::Span>& spans,
                          const std::vector<ItemOut>& outs, long cache_bytes) {
  const auto layers = perfbench::layer_times(spans);
  auto total = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  std::vector<double> config_s;
  for (const auto& s : spans)
    if (s.name == "harness.config") config_s.push_back(s.seconds());
  double insts = 0, l1 = 0, l2 = 0, hbm = 0;
  long lumped = 0;
  for (const auto& o : outs) {
    insts += static_cast<double>(o.m.warp_insts);
    l1 += static_cast<double>(o.m.l1_bytes);
    l2 += static_cast<double>(o.m.l2_bytes);
    hbm += static_cast<double>(o.m.hbm_bytes);
    if (o.lump >= 2) ++lumped;
  }
  const double replay_s = total("simt.replay");
  json::Value m = json::Value::object();
  m["simt.replay_s"] = replay_s;
  m["simt.insts_per_s"] = replay_s > 0 ? insts / replay_s : 0.0;
  m["simt.l1_bytes_per_s"] = replay_s > 0 ? l1 / replay_s : 0.0;
  m["simt.lumped_frac"] = outs.empty() ? 0.0
                                       : static_cast<double>(lumped) /
                                             static_cast<double>(outs.size());
  m["simt.decode_s"] = total("simt.decode");
  m["model.prepare_s"] = total("model.prepare");
  m["codegen.lower_s"] = total("codegen.lower");
  m["ir.regalloc_s"] = total("ir.regalloc");
  m["analysis.brickcheck_s"] = total("analysis.brickcheck");
  m["analysis.brickperf_s"] = total("analysis.brickperf");
  m["roofline.mixbench_s"] = total("roofline.mixbench");
  m["harness.autotune_s"] = total("harness.autotune");
  m["harness.shard_write_s"] = total("harness.shard_write");
  m["harness.cache_store_s"] = total("harness.cache_store");
  m["harness.cache_load_s"] = total("harness.cache_load");
  m["harness.cache_bytes"] = cache_bytes;
  m["harness.emit_s"] = total("harness.emit");
  m["harness.config_s_max"] =
      config_s.empty() ? 0.0
                       : *std::max_element(config_s.begin(), config_s.end());
  m["harness.config_s_p50"] = percentile(config_s, 0.5);
  m["memsim.l1_bytes"] = l1;
  m["memsim.l2_bytes"] = l2;
  m["memsim.hbm_bytes"] = hbm;
  return m;
}

/// layers.txt (self time per layer) and configs.txt (per-config cost, most
/// expensive first, with the replay share and lump factor that explain it).
void write_tables(const std::string& out_dir,
                  const std::vector<perfbench::Span>& spans,
                  const std::vector<Item>& items,
                  const std::vector<ItemOut>& outs) {
  const auto layers = perfbench::layer_times(spans);
  std::vector<std::pair<std::string, perfbench::LayerTime>> rows(layers.begin(),
                                                                 layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ostringstream lt;
  lt << "layer                      calls     total_s      self_s\n";
  for (const auto& [name, t] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-24s %7ld %11.4f %11.4f\n", name.c_str(),
                  t.calls, t.total_s, t.self_s);
    lt << buf;
  }
  write_file(out_dir + "/layers.txt", lt.str());

  std::map<std::string, std::size_t> item_of;
  for (std::size_t i = 0; i < items.size(); ++i) item_of[items[i].key] = i;
  std::vector<std::pair<double, std::string>> cost;
  for (const auto& s : spans)
    if (s.name == "harness.config") cost.emplace_back(s.seconds(), s.arg);
  std::sort(cost.rbegin(), cost.rend());
  std::ostringstream ct;
  ct << "config_s  replay_s  lump  config\n";
  for (const auto& [secs, key] : cost) {
    const ItemOut& o = outs[item_of[key]];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%8.4f  %8.4f  %4d  ", secs, o.replay_s,
                  o.lump);
    ct << buf << key << "\n";
  }
  write_file(out_dir + "/configs.txt", ct.str());
}

int cmd_trace(const std::map<std::string, std::string>& f) {
  const std::string out_dir = flag(f, "out");
  const std::string ref_cache = flag(f, "ref-cache");
  const std::string own_cache = flag(f, "cache");
  const int jobs = bricksim::effective_jobs(std::stoi(flag(f, "jobs", "0")));
  std::filesystem::create_directories(out_dir);
  std::filesystem::create_directories(own_cache);

  // The sweeps to walk: named ones (main:N / cpu:N) and one-config kernels.
  std::vector<harness::SweepConfig> cfgs;
  for (const auto& spec : split(flag(f, "sweeps"), ','))
    cfgs.push_back(named_sweep(spec));
  for (const auto& spec : split(flag(f, "kernels"), '|'))
    cfgs.push_back(kernel_config(spec));

  // Tasks: every distinct (sweep, roofline platform) first, then every
  // config in the canonical nested order -- run_sweep's dispatch order.
  struct RoofTask {
    int sweep;
    const model::Platform* pf;
  };
  std::vector<RoofTask> roofs;
  std::vector<Item> items;
  for (std::size_t s = 0; s < cfgs.size(); ++s) {
    const auto& c = cfgs[s];
    std::vector<std::string> seen;
    for (const auto& pf : c.platforms)
      if (std::find(seen.begin(), seen.end(), pf.label()) == seen.end()) {
        seen.push_back(pf.label());
        roofs.push_back({static_cast<int>(s), &pf});
      }
    long slot = 0;
    for (const auto& pf : c.platforms)
      for (const auto& st : c.stencils)
        for (const auto v : c.variants) {
          Item it;
          it.pf = &pf;
          it.st = &st;
          it.variant = v;
          it.opts = c.cg_opts;
          it.domain = c.domain;
          it.key = config_key(pf, st, v, c.domain);
          it.sweep = static_cast<int>(s);
          it.slot = slot++;
          items.push_back(it);
        }
  }
  std::vector<model::Platform> extra_pfs;
  std::vector<dsl::Stencil> extra_sts;
  const bool all64 = flag(f, "extras") == "all64";
  if (all64) add_all64_extras(cube(64), extra_pfs, extra_sts, items);

  // Autotune: the all64 ablation_brickshape pairs (metric platforms x
  // catalog, plus the 125pt detail run), else one small probe pair so the
  // layer is measured on every workload.
  struct TuneTask {
    model::Platform pf;
    dsl::Stencil st;
    Vec3 domain;
  };
  std::vector<TuneTask> tunes;
  if (all64) {
    for (const auto& pf : model::metric_platforms())
      for (const auto& st : dsl::Stencil::paper_catalog())
        tunes.push_back({pf, st, cube(64)});
    tunes.push_back(
        {model::metric_platforms().front(), dsl::Stencil::cube(2), cube(64)});
  } else {
    tunes.push_back({model::metric_platforms().front(), dsl::Stencil::star(1),
                     cube(64)});
  }

  std::vector<std::map<std::string, bricksim::roofline::EmpiricalRoofline>>
      rl_out(cfgs.size());
  std::vector<std::optional<bricksim::roofline::EmpiricalRoofline>> rl_slots(
      roofs.size());
  std::vector<ItemOut> outs(items.size());
  std::atomic<long> failed_tasks{0};
  const long ntasks =
      static_cast<long>(roofs.size() + items.size() + tunes.size());
  const double walk0 = perfbench::SpanLog::instance().now();
  bricksim::parallel_for(jobs, ntasks, [&](long t) {
    try {
      if (t < static_cast<long>(roofs.size())) {
        const RoofTask& r = roofs[static_cast<std::size_t>(t)];
        rl_slots[static_cast<std::size_t>(t)] =
            timed("roofline.mixbench", r.pf->label(), [&] {
              return bricksim::roofline::mixbench(*r.pf, {128, 128, 128});
            });
        return;
      }
      t -= static_cast<long>(roofs.size());
      if (t < static_cast<long>(items.size())) {
        const Item& it = items[static_cast<std::size_t>(t)];
        const harness::SweepConfig* cfg =
            it.sweep >= 0 ? &cfgs[static_cast<std::size_t>(it.sweep)] : nullptr;
        outs[static_cast<std::size_t>(t)] = walk_item(it, own_cache, cfg);
        return;
      }
      t -= static_cast<long>(items.size());
      const TuneTask& tt = tunes[static_cast<std::size_t>(t)];
      timed("harness.autotune", tt.pf.label() + " " + tt.st.name(), [&] {
        return harness::autotune_brick_shape(
            tt.st, codegen::Variant::BricksCodegen, tt.pf, tt.domain);
      });
    } catch (const std::exception& e) {
      std::cerr << "perfbench: task failed: " << e.what() << "\n";
      failed_tasks.fetch_add(1);
    }
  });
  const double walk_s = perfbench::SpanLog::instance().now() - walk0;

  // Assemble the walked sweeps and check them against the untraced run's
  // cached sweeps, then through this layer's own store/load round trip.
  for (std::size_t r = 0; r < roofs.size(); ++r)
    if (rl_slots[r])
      rl_out[static_cast<std::size_t>(roofs[r].sweep)].emplace(
          roofs[r].pf->label(), *rl_slots[r]);
  long compared = 0, mismatched = 0, cache_bytes = 0;
  std::vector<harness::Sweep> sweeps(cfgs.size());
  for (std::size_t s = 0; s < cfgs.size(); ++s) {
    sweeps[s].config = cfgs[s];
    sweeps[s].rooflines = rl_out[s];
  }
  for (std::size_t i = 0; i < items.size(); ++i)
    if (items[i].sweep >= 0)
      sweeps[static_cast<std::size_t>(items[i].sweep)].measurements.push_back(
          outs[i].m);
  for (std::size_t s = 0; s < cfgs.size(); ++s) {
    harness::Sweep& sw = sweeps[s];
    sw.build_index();
    const std::string fp = harness::fingerprint(cfgs[s]);
    ++compared;
    const auto ref = timed("harness.cache_load", "ref " + fp, [&] {
      return harness::load_cached_sweep(ref_cache, cfgs[s]);
    });
    if (!ref || sweep_json(*ref) != sweep_json(sw)) {
      std::cerr << "perfbench: traced sweep " << fp
                << (ref ? " differs from" : " has no") << " untraced sweep\n";
      ++mismatched;
    }
    timed("harness.cache_store", fp, [&] {
      harness::store_cached_sweep(own_cache, sw);
      return 0;
    });
    cache_bytes += static_cast<long>(
        std::filesystem::file_size(harness::cache_entry_path(own_cache, cfgs[s])));
    harness::clear_shards(own_cache, cfgs[s]);
    ++compared;
    const auto back = timed("harness.cache_load", fp, [&] {
      return harness::load_cached_sweep(own_cache, cfgs[s]);
    });
    if (!back || sweep_json(*back) != sweep_json(sw)) {
      std::cerr << "perfbench: sweep " << fp << " did not round-trip\n";
      ++mismatched;
    }
  }

  // Emitters over every walked paper sweep (the registry's emit bodies
  // minus the text framing).
  long emitted = 0;
  auto emit = [&](const char* what, const std::string& on, auto&& fn) {
    timed("harness.emit", std::string(what) + " " + on, fn);
    ++emitted;
  };
  for (std::size_t s = 0; s < cfgs.size(); ++s) {
    const harness::Sweep& sw = sweeps[s];
    const std::string on = "n=" + std::to_string(sw.config.domain.i);
    emit("fig3", on, [&] { return harness::make_fig3(sw); });
    emit("fig4", on, [&] { return harness::make_fig4(sw); });
    emit("fig5", on, [&] { return harness::make_fig5(sw); });
    emit("fig6", on, [&] { return harness::make_fig6(sw); });
    emit("table3", on, [&] { return harness::make_table3(sw); });
    emit("table5", on, [&] { return harness::make_table5(sw); });
    emit("fig7", on, [&] { return harness::make_fig7(sw); });
    emit("check_summary", on, [&] { return harness::make_check_summary(sw); });
  }
  emit("table1", "", [] { return harness::make_table1(); });
  emit("table2", "", [] { return harness::make_table2(); });
  emit("table4", "", [] { return harness::make_table4(); });

  const json::Value serve_out = serve_phase(f, ref_cache, jobs);

  // Metrics and artifacts.
  const auto spans = perfbench::SpanLog::instance().spans();
  double config_sum = 0;
  long configs = 0;
  for (const auto& sp : spans)
    if (sp.name == "harness.config") {
      config_sum += sp.seconds();
      ++configs;
    }
  json::Value doc = json::Value::object();
  doc["metrics"] = layer_metrics(spans, outs, cache_bytes);
  doc["config_s_sum"] = config_sum;
  doc["configs"] = configs;
  doc["walk_s"] = walk_s;
  doc["jobs"] = jobs;
  doc["tasks"] = ntasks;
  doc["failed_tasks"] = failed_tasks.load();
  doc["sweeps_compared"] = compared;
  doc["sweeps_mismatched"] = mismatched;
  doc["emitted"] = emitted;
  doc["serve"] = serve_out;
  write_file(out_dir + "/trace_metrics.json", doc.dump(1) + "\n");
  write_file(out_dir + "/trace.json", perfbench::chrome_trace(spans));
  write_tables(out_dir, spans, items, outs);
  return 0;
}

// --- selftest ----------------------------------------------------------------

int cmd_selftest() {
  int bad = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++bad;
    }
  };
  std::string d;
  const auto exp_ok = json::Value::parse(
      R"({"ok":true,"status":"ok","output":"table\n","failures":0})");
  const std::string good = fnv1a("table\n");
  expect(classify_reply(exp_ok, true, good, &d) == Verdict::Ok,
         "matching experiment reply is ok");
  expect(classify_reply(exp_ok, true, fnv1a("tablf\n"), &d) ==
             Verdict::Mismatch,
         "one-byte output change is a mismatch");
  expect(classify_reply(json::Value::parse(R"({"ok":false,"error":"x"})"),
                        true, good, &d) == Verdict::NotOk,
         "ok:false reply is not ok");
  expect(classify_reply(json::Value::parse(
                            R"({"ok":true,"status":"failed","output":""})"),
                        true, "", &d) == Verdict::NotOk,
         "failed experiment is not ok");
  const auto sweep = [](const char* status) {
    return json::Value::parse(std::string(R"({"ok":true,"status":")") +
                              status +
                              R"(","fingerprint":"ab","measurements":3})");
  };
  expect(classify_reply(sweep("warm_disk"), false, "ab:3", &d) == Verdict::Ok,
         "warm sweep reply is ok");
  expect(classify_reply(sweep("simulated"), false, "ab:3", &d) ==
             Verdict::NotOk,
         "cold simulation in a warm workload is not ok");
  expect(classify_reply(sweep("overloaded"), false, "", &d) == Verdict::NotOk,
         "overloaded reply is not ok");
  expect(classify_reply(sweep("warm_memo"), false, "ab:4", &d) ==
             Verdict::Mismatch,
         "wrong measurement count is a mismatch");
  std::cout << (bad == 0 ? "selftest ok\n" : "selftest failed\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: perfbench_driver info|kernel512|trace|client|"
                   "selftest [--flag value]...\n";
      return 2;
    }
    const std::string cmd = argv[1];
    const auto f = parse_flags(argc, argv, 2);
    if (cmd == "info") return cmd_info();
    if (cmd == "kernel512") return cmd_kernel512(f);
    if (cmd == "trace") return cmd_trace(f);
    if (cmd == "client") return cmd_client(f);
    if (cmd == "selftest") return cmd_selftest();
    std::cerr << "perfbench_driver: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
