#include "sharedmem/write_all.h"

namespace dowork {

SharedOp WriteAllCounterProcess::on_round(std::uint64_t round,
                                          std::optional<std::int64_t> last_read) {
  switch (phase_) {
    case Phase::kWait:
      if (round < deadline_) return SharedOp::idle();
      phase_ = Phase::kReadIssued;
      return SharedOp::read(0);  // the progress counter lives in cell 0
    case Phase::kReadIssued:
      done_ = last_read.value_or(0);
      if (done_ >= n_) {
        phase_ = Phase::kDone;
        return SharedOp::terminate();
      }
      phase_ = Phase::kWriteBack;
      return SharedOp::work(done_ + 1);
    case Phase::kWork:
      if (done_ >= n_) {
        phase_ = Phase::kDone;
        return SharedOp::terminate();
      }
      phase_ = Phase::kWriteBack;
      return SharedOp::work(done_ + 1);
    case Phase::kWriteBack:
      // The unit just performed becomes durable before the next one starts;
      // a crash in between costs exactly one redone unit.
      ++done_;
      phase_ = Phase::kWork;
      return SharedOp::write(0, done_);
    case Phase::kDone:
      return SharedOp::terminate();
  }
  return SharedOp::idle();
}

std::uint64_t WriteAllCounterProcess::next_wake(std::uint64_t now) const {
  if (phase_ == Phase::kWait) return std::max(now, deadline_);
  if (phase_ == Phase::kDone) return UINT64_MAX;
  return now;
}

SharedMetrics run_write_all(const DoAllConfig& cfg, std::vector<ScheduledFaults::Entry> crashes) {
  std::vector<std::unique_ptr<ISharedProcess>> procs;
  for (int i = 0; i < cfg.t; ++i)
    procs.push_back(std::make_unique<WriteAllCounterProcess>(cfg, i));
  SharedMemSim::Options opts;
  opts.n_units = cfg.n;
  opts.n_cells = 1;
  SharedMemSim sim(std::move(procs), opts, std::move(crashes));
  return sim.run();
}

}  // namespace dowork
