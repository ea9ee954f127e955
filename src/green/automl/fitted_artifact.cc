#include "green/automl/fitted_artifact.h"

#include "green/common/logging.h"
#include "green/common/mathutil.h"
#include "green/common/stringutil.h"
#include "green/ml/kernels/kernels.h"

namespace green {

namespace {

/// Kernel-path weighted blend: streams every member's probabilities into
/// one flat rows x k accumulator instead of per-row vectors. Per-(row,
/// class) adds keep member order, and zero-weight members are skipped
/// exactly like the reference loop, so the result is bit-identical.
ProbaMatrix BlendFlat(const std::vector<ProbaMatrix>& probas,
                      const std::vector<double>& weights, size_t rows,
                      size_t k) {
  std::vector<double> acc(rows * k, 0.0);
  for (size_t j = 0; j < probas.size(); ++j) {
    const double w = weights[j];
    if (w <= 0.0) continue;
    const ProbaMatrix& p = probas[j];
    for (size_t i = 0; i < rows; ++i) {
      double* row = acc.data() + i * k;
      const std::vector<double>& src = p[i];
      for (size_t c = 0; c < k; ++c) row[c] += w * src[c];
    }
  }
  ProbaMatrix out(rows);
  for (size_t i = 0; i < rows; ++i) {
    out[i].assign(acc.begin() + static_cast<ptrdiff_t>(i * k),
                  acc.begin() + static_cast<ptrdiff_t>((i + 1) * k));
  }
  return out;
}

}  // namespace

Result<Dataset> StackProbabilities(const Dataset& data,
                                   const std::vector<ProbaMatrix>& probas,
                                   size_t k, ExecutionContext* ctx) {
  const size_t d = data.num_features();
  const size_t width = d + probas.size() * k;
  Dataset out = Dataset::Like(data, data.name(), width);
  out.SetNominalSize(data.nominal_rows(), data.nominal_features());
  auto schema = std::make_shared<Schema>(*Schema::Default(width));
  std::ranges::copy(data.schema()->types, schema->types.begin());
  std::ranges::copy(data.schema()->names, schema->names.begin());
  out.SetSchema(std::move(schema));
  out.Reserve(data.num_rows());
  std::vector<double> row(width);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const double* p = data.RowPtr(i);
    std::copy(p, p + d, row.begin());
    size_t o = d;
    for (const ProbaMatrix& proba : probas) {
      for (size_t c = 0; c < k; ++c) row[o++] = proba[i][c];
    }
    GREEN_RETURN_IF_ERROR(out.AppendRowLike(data, i, row));
  }
  ctx->ChargeCpu(static_cast<double>(data.num_rows() * width),
                 out.FeatureBytes());
  return out;
}

FittedArtifact FittedArtifact::Single(
    std::shared_ptr<const Pipeline> pipeline) {
  FittedArtifact out;
  Member member;
  member.folds.push_back(std::move(pipeline));
  member.weight = 1.0;
  out.base_.push_back(std::move(member));
  return out;
}

FittedArtifact FittedArtifact::Weighted(std::vector<Member> members) {
  FittedArtifact out;
  out.base_ = std::move(members);
  return out;
}

FittedArtifact FittedArtifact::Stacked(std::vector<Member> base,
                                       std::vector<Member> meta) {
  FittedArtifact out;
  out.base_ = std::move(base);
  out.meta_ = std::move(meta);
  return out;
}

Result<FittedArtifact> FittedArtifact::DistillBestSingle() const {
  if (base_.empty()) {
    return Status::FailedPrecondition("artifact is empty");
  }
  const Member* best = &base_[0];
  for (const Member& m : base_) {
    if (m.weight > best->weight) best = &m;
  }
  GREEN_CHECK(!best->folds.empty());
  return Single(best->folds[0]);
}

size_t FittedArtifact::NumPipelines() const {
  size_t n = 0;
  for (const Member& m : base_) n += m.folds.size();
  for (const Member& m : meta_) n += m.folds.size();
  return n;
}

Result<ProbaMatrix> FittedArtifact::MemberProba(
    const Member& member, const Dataset& data,
    ExecutionContext* ctx) const {
  GREEN_CHECK(!member.folds.empty());
  ProbaMatrix sum;
  for (const auto& fold : member.folds) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           fold->PredictProba(data, ctx));
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("artifact: interrupted mid-predict");
    }
    if (sum.empty()) {
      sum = std::move(proba);
    } else {
      for (size_t i = 0; i < sum.size(); ++i) {
        for (size_t c = 0; c < sum[i].size(); ++c) {
          sum[i][c] += proba[i][c];
        }
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(member.folds.size());
  for (auto& row : sum) {
    for (double& p : row) p *= inv;
  }
  return sum;
}

Result<ProbaMatrix> FittedArtifact::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (base_.empty()) {
    return Status::FailedPrecondition("artifact is empty");
  }
  ChargeScope scope(ctx, meta_.empty() ? "blend" : "stack");

  // Base layer.
  std::vector<ProbaMatrix> base_probas;
  base_probas.reserve(base_.size());
  for (const Member& member : base_) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           MemberProba(member, data, ctx));
    base_probas.push_back(std::move(proba));
  }
  if (data.num_rows() == 0) return ProbaMatrix{};  // No row to read k from.

  if (meta_.empty()) {
    // Weighted blend of the base layer.
    const size_t k = base_probas[0][0].size();
    double weight_sum = 0.0;
    for (const Member& m : base_) weight_sum += m.weight;
    if (weight_sum <= 0.0) weight_sum = 1.0;
    ProbaMatrix out;
    if (KernelsEnabled()) {
      std::vector<double> weights(base_.size());
      for (size_t j = 0; j < base_.size(); ++j) {
        weights[j] = base_[j].weight / weight_sum;
      }
      out = BlendFlat(base_probas, weights, data.num_rows(), k);
    } else {
      out.resize(data.num_rows());
      for (size_t i = 0; i < data.num_rows(); ++i) {
        out[i].assign(k, 0.0);
      }
      for (size_t j = 0; j < base_.size(); ++j) {
        const double w = base_[j].weight / weight_sum;
        if (w <= 0.0) continue;
        for (size_t i = 0; i < data.num_rows(); ++i) {
          for (size_t c = 0; c < out[i].size(); ++c) {
            out[i][c] += w * base_probas[j][i][c];
          }
        }
      }
    }
    ctx->ChargeCpu(static_cast<double>(data.num_rows()) *
                       static_cast<double>(base_.size()) *
                       static_cast<double>(base_probas[0][0].size()),
                   0.0);
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("artifact: interrupted mid-predict");
    }
    return out;
  }

  // Stacked: augment features with base probabilities, then run the meta
  // layer and blend it.
  const size_t k = base_probas[0][0].size();
  GREEN_ASSIGN_OR_RETURN(Dataset augmented,
                         StackProbabilities(data, base_probas, k, ctx));

  std::vector<ProbaMatrix> meta_probas;
  meta_probas.reserve(meta_.size());
  for (const Member& member : meta_) {
    GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba,
                           MemberProba(member, augmented, ctx));
    meta_probas.push_back(std::move(proba));
  }
  double weight_sum = 0.0;
  for (const Member& m : meta_) weight_sum += m.weight;
  if (weight_sum <= 0.0) weight_sum = 1.0;
  ProbaMatrix out;
  if (KernelsEnabled()) {
    std::vector<double> weights(meta_.size());
    for (size_t j = 0; j < meta_.size(); ++j) {
      weights[j] = meta_[j].weight / weight_sum;
    }
    out = BlendFlat(meta_probas, weights, data.num_rows(), k);
  } else {
    out.resize(data.num_rows());
    for (size_t i = 0; i < data.num_rows(); ++i) out[i].assign(k, 0.0);
    for (size_t j = 0; j < meta_.size(); ++j) {
      const double w = meta_[j].weight / weight_sum;
      if (w <= 0.0) continue;
      for (size_t i = 0; i < data.num_rows(); ++i) {
        for (size_t c = 0; c < k; ++c) {
          out[i][c] += w * meta_probas[j][i][c];
        }
      }
    }
  }
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("artifact: interrupted mid-predict");
  }
  return out;
}

TaskType FittedArtifact::task() const {
  if (!base_.empty() && !base_[0].folds.empty()) {
    const Estimator* model = base_[0].folds[0]->model();
    if (model != nullptr) return model->task();
  }
  return TaskType::kBinary;
}

Result<std::vector<int>> FittedArtifact::Predict(
    const Dataset& data, ExecutionContext* ctx) const {
  if (task() == TaskType::kRegression) {
    return Status::FailedPrecondition(
        "artifact: Predict (class labels) undefined for regression; use "
        "PredictProba and read column 0");
  }
  GREEN_ASSIGN_OR_RETURN(ProbaMatrix proba, PredictProba(data, ctx));
  std::vector<int> out;
  out.reserve(proba.size());
  for (const auto& row : proba) {
    out.push_back(static_cast<int>(ArgMax(row)));
  }
  return out;
}

double FittedArtifact::InferenceFlopsPerRow(size_t raw_num_features) const {
  double flops = 0.0;
  for (const Member& m : base_) {
    for (const auto& fold : m.folds) {
      flops += fold->InferenceFlopsPerRow(raw_num_features);
    }
  }
  if (!meta_.empty() && !base_.empty() && !base_[0].folds.empty()) {
    const Estimator* any_model = base_[0].folds[0]->model();
    const size_t k =
        any_model != nullptr && any_model->num_classes() > 0
            ? static_cast<size_t>(any_model->num_classes())
            : 2;
    const size_t aug_width = raw_num_features + base_.size() * k;
    for (const Member& m : meta_) {
      for (const auto& fold : m.folds) {
        flops += fold->InferenceFlopsPerRow(aug_width);
      }
    }
  }
  return flops;
}

std::string FittedArtifact::Describe() const {
  std::vector<std::string> parts;
  for (const Member& m : base_) {
    if (m.weight <= 0.0) continue;
    parts.push_back(StrFormat("%.2f*%s%s", m.weight,
                              m.folds[0]->Describe().c_str(),
                              m.folds.size() > 1
                                  ? StrFormat("(x%zu folds)",
                                              m.folds.size())
                                        .c_str()
                                  : ""));
  }
  std::string out = Join(parts, " + ");
  if (!meta_.empty()) {
    std::vector<std::string> meta_parts;
    for (const Member& m : meta_) {
      if (m.weight <= 0.0) continue;
      meta_parts.push_back(
          StrFormat("%.2f*%s", m.weight, m.folds[0]->Describe().c_str()));
    }
    out = "stack[base: " + out + " | meta: " + Join(meta_parts, " + ") +
          "]";
  }
  return out;
}

}  // namespace green
