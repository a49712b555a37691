#include "core/registry.h"

#include <stdexcept>

#include "protocols/baseline_all.h"
#include "protocols/baseline_checkpoint.h"
#include "protocols/protocol_a.h"
#include "protocols/protocol_b.h"
#include "protocols/protocol_c.h"
#include "protocols/protocol_d.h"
#include "protocols/protocol_d_coord.h"

namespace dowork {

const std::vector<ProtocolInfo>& all_protocols() {
  static const std::vector<ProtocolInfo> kProtocols = [] {
    std::vector<ProtocolInfo> v;
    v.push_back(ProtocolInfo{
        .name = "baseline_all", .sequential = false, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<BaselineAllProcess>(cfg, self);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "baseline_checkpoint", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<BaselineCheckpointProcess>(cfg, self, /*k=*/1);
        },
        .make_proc_param = [](const DoAllConfig& cfg, int self, std::int64_t units_per_ckpt)
            -> std::unique_ptr<IProcess> {
          return std::make_unique<BaselineCheckpointProcess>(cfg, self, units_per_ckpt);
        },
        .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "A", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<ProtocolAProcess>(cfg, self);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "B", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<ProtocolBProcess>(cfg, self);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "C", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<ProtocolCProcess>(cfg, self);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "C_batch", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          ProtocolCOptions o;
          o.batch_reports = true;
          return std::make_unique<ProtocolCProcess>(cfg, self, o);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "naive_C", .sequential = true, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          ProtocolCOptions o;
          o.fault_detection = false;
          return std::make_unique<ProtocolCProcess>(cfg, self, o);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "D", .sequential = false, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<ProtocolDProcess>(cfg, self);
        },
        .make_proc_param = {},
        // The run's t processes share one agreement merge cache (a pure
        // memoization of each round's ledger read -- protocol_d.h
        // documents why results are bit-identical with and without it)
        // and start from one (S, T).
        .make_procs = [](const DoAllConfig& cfg) {
          auto cache = std::make_shared<AgreeMergeCache>();
          const SharedBits all_units = share_bits(DynBitset(static_cast<std::size_t>(cfg.n), true));
          const SharedBits all_procs = share_bits(DynBitset(static_cast<std::size_t>(cfg.t), true));
          std::vector<std::unique_ptr<IProcess>> procs;
          procs.reserve(static_cast<std::size_t>(cfg.t));
          for (int i = 0; i < cfg.t; ++i)
            procs.push_back(
                std::make_unique<ProtocolDProcess>(cfg, i, cache, all_units, all_procs));
          return procs;
        },
        .check_outcome = {}});
    v.push_back(ProtocolInfo{
        .name = "D_coord", .sequential = false, .strict_one_op = true,
        .make_proc = [](const DoAllConfig& cfg, int self) -> std::unique_ptr<IProcess> {
          return std::make_unique<ProtocolDCoordProcess>(cfg, self);
        },
        .make_proc_param = {}, .make_procs = {}, .check_outcome = {}});
    return v;
  }();
  return kProtocols;
}

const ProtocolInfo& find_protocol(const std::string& name) {
  for (const ProtocolInfo& p : all_protocols())
    if (p.name == name) return p;
  throw std::invalid_argument("unknown protocol: " + name);
}

std::vector<std::unique_ptr<IProcess>> make_processes(const ProtocolInfo& info,
                                                      const DoAllConfig& cfg) {
  return make_processes(info, cfg, std::nullopt);
}

std::unique_ptr<IProcess> make_process(const ProtocolInfo& info, const DoAllConfig& cfg, int self,
                                       std::optional<std::int64_t> param) {
  if (param && !info.make_proc_param)
    throw std::invalid_argument("protocol " + info.name + " takes no parameter");
  return param ? info.make_proc_param(cfg, self, *param) : info.make_proc(cfg, self);
}

std::vector<std::unique_ptr<IProcess>> make_processes(const ProtocolInfo& info,
                                                      const DoAllConfig& cfg,
                                                      std::optional<std::int64_t> param) {
  if (!param && info.make_procs) return info.make_procs(cfg);
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.reserve(static_cast<std::size_t>(cfg.t));
  for (int i = 0; i < cfg.t; ++i) procs.push_back(make_process(info, cfg, i, param));
  return procs;
}

}  // namespace dowork
