#include "core/lwp_tracker.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace zerosum::core {

LwpTracker::LwpTracker(const procfs::ProcFs& fs, int pid)
    : fs_(fs), pid_(pid) {}

void LwpTracker::hintType(int tid, LwpType type) { typeHints_[tid] = type; }

void LwpTracker::addOmpTids(const std::set<int>& tids) {
  ompTids_.insert(tids.begin(), tids.end());
  // A Main record that turns out to be an OpenMP team member gets the
  // paper's dagger annotation retroactively.
  for (auto& [tid, record] : records_) {
    if (record.type == LwpType::kMain && ompTids_.count(tid) != 0) {
      record.alsoOpenMp = true;
    }
  }
}

LwpType LwpTracker::classify(int tid, const std::string& comm) const {
  if (const auto it = typeHints_.find(tid); it != typeHints_.end()) {
    return it->second;
  }
  if (tid == pid_) {
    return LwpType::kMain;
  }
  if (ompTids_.count(tid) != 0) {
    return LwpType::kOpenMp;
  }
  // Name heuristics mirror what the tool can infer on real systems from
  // thread names set by the runtimes.
  const std::string lower = [&] {
    std::string s = comm;
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  }();
  if (lower.find("zerosum") != std::string::npos) {
    return LwpType::kZeroSum;
  }
  if (lower.find("omp") != std::string::npos) {
    return LwpType::kOpenMp;
  }
  if (lower.find("cuda") != std::string::npos ||
      lower.find("hip") != std::string::npos ||
      lower.find("rocr") != std::string::npos) {
    return LwpType::kGpuHelper;
  }
  return LwpType::kOther;
}

void LwpTracker::sample(double timeSeconds) {
  fs_.listTasksInto(pid_, tidsScratch_);
  seenScratch_.clear();
  for (int tid : tidsScratch_) {
    procfs::TaskStat& stat = statScratch_;
    procfs::ProcStatus& status = statusScratch_;
    try {
      fs_.readTaskStatInto(pid_, tid, bufScratch_);
      procfs::parseTaskStatInto(bufScratch_, stat);
      fs_.readTaskStatusInto(pid_, tid, bufScratch_);
      procfs::parseStatusInto(bufScratch_, status);
    } catch (const Error& e) {
      // The thread exited between the directory scan and the read; its
      // record (if any) will be marked dead below.
      log::debug() << "tid " << tid << " vanished mid-scan: " << e.what();
      continue;
    }
    seenScratch_.push_back(tid);  // tids arrive sorted, so this stays sorted

    auto [it, isNew] = records_.try_emplace(tid);
    LwpRecord& record = it->second;
    if (isNew) {
      record.tid = tid;
      record.name = stat.comm;
      record.type = classify(tid, stat.comm);
      record.alsoOpenMp =
          record.type == LwpType::kMain && ompTids_.count(tid) != 0;
    }
    record.alive = true;

    LwpSample sample;
    sample.timeSeconds = timeSeconds;
    sample.state = stat.state;
    sample.utime = stat.utimeJiffies;
    sample.stime = stat.stimeJiffies;
    sample.voluntaryCtx = status.voluntaryCtxSwitches;
    sample.nonvoluntaryCtx = status.nonvoluntaryCtxSwitches;
    sample.minorFaults = stat.minorFaults;
    sample.majorFaults = stat.majorFaults;
    sample.processor = stat.processor;
    if (!record.samples.empty()) {
      const LwpSample& prev = record.samples.back();
      sample.utimeDelta =
          sample.utime >= prev.utime ? sample.utime - prev.utime : 0;
      sample.stimeDelta =
          sample.stime >= prev.stime ? sample.stime - prev.stime : 0;
    } else {
      sample.utimeDelta = sample.utime;
      sample.stimeDelta = sample.stime;
    }
    record.addSample(sample, status.cpusAllowed);
  }

  for (auto& [tid, record] : records_) {
    if (!std::binary_search(seenScratch_.begin(), seenScratch_.end(), tid)) {
      record.alive = false;
    }
  }
}

std::size_t LwpTracker::liveCount() const {
  std::size_t count = 0;
  for (const auto& [tid, record] : records_) {
    if (record.alive) {
      ++count;
    }
  }
  return count;
}

}  // namespace zerosum::core
