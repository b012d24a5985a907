#include "engine/calibration.h"

#include <algorithm>
#include <cmath>

namespace touch {

std::string AlgorithmFamily(const std::string& algorithm) {
  const size_t dash = algorithm.find('-');
  return dash == std::string::npos ? algorithm : algorithm.substr(0, dash);
}

std::optional<double> CalibrationSnapshot::Predict(const std::string& family,
                                                   double objects,
                                                   double results) const {
  const CostModel* model = Find(family);
  if (model == nullptr || model->samples < min_samples_) return std::nullopt;
  return model->Predict(objects, results);
}

const CostModel* CalibrationSnapshot::Find(const std::string& family) const {
  const auto it = models_.find(family);
  return it == models_.end() ? nullptr : &it->second;
}

size_t CalibrationSnapshot::calibrated_families() const {
  size_t count = 0;
  for (const auto& [family, model] : models_) {
    if (model.samples >= min_samples_) ++count;
  }
  return count;
}

size_t CalibrationSnapshot::total_samples() const {
  size_t count = 0;
  for (const auto& [family, model] : models_) count += model.samples;
  return count;
}

CostModel FitCostModel(size_t samples, double objects_sq,
                       double objects_results, double results_sq,
                       double objects_time, double results_time) {
  CostModel model;
  model.samples = samples;
  if (samples == 0) return model;

  // Single-coefficient fallback: all time attributed to per-object work.
  const auto per_object_only = [&]() {
    model.seconds_per_object =
        objects_sq > 0 ? std::max(0.0, objects_time / objects_sq) : 0.0;
    model.seconds_per_result = 0;
  };

  // Ridge term keeps the 2x2 normal equations solvable when every recorded
  // run has (near-)proportional objects and results (one workload repeated),
  // at a size that cannot perturb a well-conditioned fit.
  const double ridge = 1e-9 * (objects_sq + results_sq) + 1e-18;
  const double a11 = objects_sq + ridge;
  const double a22 = results_sq + ridge;
  const double det = a11 * a22 - objects_results * objects_results;
  if (det <= 0 || !std::isfinite(det)) {
    per_object_only();
    return model;
  }
  const double per_object =
      (objects_time * a22 - results_time * objects_results) / det;
  const double per_result =
      (results_time * a11 - objects_time * objects_results) / det;
  if (per_object < 0 || per_result < 0 || !std::isfinite(per_object) ||
      !std::isfinite(per_result)) {
    // A negative coefficient means the two regressors fight over the same
    // variance; the constrained optimum lies on a coordinate axis.
    if (per_result < 0 || results_sq <= 0) {
      per_object_only();
    } else {
      model.seconds_per_object = 0;
      model.seconds_per_result = std::max(0.0, results_time / results_sq);
    }
    return model;
  }
  model.seconds_per_object = per_object;
  model.seconds_per_result = per_result;
  return model;
}

void PlanFeedback::Record(const PlanOutcome& outcome) {
  const MutexLock lock(mutex_);
  FamilySums& sums = sums_[outcome.family];
  const double objects = static_cast<double>(outcome.objects);
  const double results = outcome.estimated_results;  // see PlanOutcome
  const double seconds = outcome.total_seconds;
  ++sums.n;
  sums.objects_sq += objects * objects;
  sums.objects_results += objects * results;
  sums.results_sq += results * results;
  sums.objects_time += objects * seconds;
  sums.results_time += results * seconds;
  ++recorded_;
  log_.push_back(outcome);
  while (max_outcomes_ > 0 && log_.size() > max_outcomes_) log_.pop_front();
}

CalibrationSnapshot PlanFeedback::Snapshot(size_t min_samples) const {
  std::map<std::string, CostModel> models;
  {
    const MutexLock lock(mutex_);
    for (const auto& [family, sums] : sums_) {
      models[family] =
          FitCostModel(sums.n, sums.objects_sq, sums.objects_results,
                       sums.results_sq, sums.objects_time, sums.results_time);
    }
  }
  return CalibrationSnapshot(std::move(models), min_samples);
}

std::vector<PlanOutcome> PlanFeedback::RecentOutcomes() const {
  const MutexLock lock(mutex_);
  return std::vector<PlanOutcome>(log_.begin(), log_.end());
}

uint64_t PlanFeedback::total_recorded() const {
  const MutexLock lock(mutex_);
  return recorded_;
}

void PlanFeedback::Clear() {
  const MutexLock lock(mutex_);
  sums_.clear();
  log_.clear();
  recorded_ = 0;
}

}  // namespace touch
