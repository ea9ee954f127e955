#include "green/ml/model_registry.h"

#include <cmath>
#include <memory>

#include "green/common/stringutil.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/models/attention_few_shot.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/extra_trees.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/knn.h"
#include "green/ml/models/logistic_regression.h"
#include "green/ml/models/mlp.h"
#include "green/ml/models/naive_bayes.h"
#include "green/ml/models/random_forest.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/pca.h"
#include "green/ml/preprocess/scaler.h"

namespace green {

namespace {

double GetParam(const std::map<std::string, double>& params,
                const std::string& key, double fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int GetInt(const std::map<std::string, double>& params,
           const std::string& key, int fallback) {
  return static_cast<int>(
      GetParam(params, key, static_cast<double>(fallback)));
}

Result<std::unique_ptr<Estimator>> BuildModel(
    const PipelineConfig& config) {
  const auto& p = config.params;
  if (config.model == "decision_tree") {
    DecisionTreeParams dt;
    dt.max_depth = GetInt(p, "max_depth", 8);
    dt.min_samples_leaf = GetInt(p, "min_samples_leaf", 2);
    dt.max_features_fraction = GetParam(p, "max_features_fraction", 0.0);
    dt.seed = config.seed;
    return std::unique_ptr<Estimator>(new DecisionTree(dt));
  }
  if (config.model == "random_forest") {
    RandomForestParams rf;
    rf.num_trees = GetInt(p, "num_trees", 32);
    rf.max_depth = GetInt(p, "max_depth", 10);
    rf.min_samples_leaf = GetInt(p, "min_samples_leaf", 2);
    rf.max_features_fraction = GetParam(p, "max_features_fraction", 0.0);
    rf.bootstrap_fraction = GetParam(p, "bootstrap_fraction", 1.0);
    rf.seed = config.seed;
    return std::unique_ptr<Estimator>(new RandomForest(rf));
  }
  if (config.model == "extra_trees") {
    ExtraTreesParams et;
    et.num_trees = GetInt(p, "num_trees", 32);
    et.max_depth = GetInt(p, "max_depth", 10);
    et.min_samples_leaf = GetInt(p, "min_samples_leaf", 2);
    et.max_features_fraction = GetParam(p, "max_features_fraction", 0.0);
    et.seed = config.seed;
    return std::unique_ptr<Estimator>(new ExtraTrees(et));
  }
  if (config.model == "gradient_boosting") {
    GradientBoostingParams gb;
    gb.num_rounds = GetInt(p, "num_rounds", 40);
    gb.max_depth = GetInt(p, "max_depth", 3);
    gb.learning_rate = GetParam(p, "learning_rate", 0.15);
    gb.min_samples_leaf = GetInt(p, "min_samples_leaf", 4);
    gb.subsample = GetParam(p, "subsample", 1.0);
    gb.seed = config.seed;
    return std::unique_ptr<Estimator>(new GradientBoosting(gb));
  }
  if (config.model == "logistic_regression") {
    LogisticRegressionParams lr;
    lr.epochs = GetInt(p, "epochs", 30);
    lr.learning_rate = GetParam(p, "learning_rate", 0.1);
    lr.l2 = GetParam(p, "l2", 1e-4);
    lr.batch_size = GetInt(p, "batch_size", 32);
    lr.seed = config.seed;
    return std::unique_ptr<Estimator>(new LogisticRegression(lr));
  }
  if (config.model == "knn") {
    KnnParams knn;
    knn.k = GetInt(p, "k", 5);
    knn.distance_weighted = GetParam(p, "distance_weighted", 0.0) > 0.5;
    return std::unique_ptr<Estimator>(new Knn(knn));
  }
  if (config.model == "naive_bayes") {
    NaiveBayesParams nb;
    nb.var_smoothing = GetParam(p, "var_smoothing", 1e-9);
    return std::unique_ptr<Estimator>(new GaussianNaiveBayes(nb));
  }
  if (config.model == "mlp") {
    MlpParams mlp;
    mlp.hidden_units = GetInt(p, "hidden_units", 32);
    mlp.epochs = GetInt(p, "epochs", 40);
    mlp.learning_rate = GetParam(p, "learning_rate", 0.05);
    mlp.l2 = GetParam(p, "l2", 1e-5);
    mlp.batch_size = GetInt(p, "batch_size", 32);
    mlp.seed = config.seed;
    return std::unique_ptr<Estimator>(new Mlp(mlp));
  }
  if (config.model == "adaboost") {
    AdaBoostParams ab;
    ab.num_rounds = GetInt(p, "num_rounds", 30);
    ab.max_depth = GetInt(p, "max_depth", 2);
    ab.learning_rate = GetParam(p, "learning_rate", 1.0);
    ab.seed = config.seed;
    return std::unique_ptr<Estimator>(new AdaBoost(ab));
  }
  if (config.model == "attention_few_shot") {
    AttentionFewShotParams af;
    af.embed_dim = GetInt(p, "embed_dim", 48);
    af.num_layers = GetInt(p, "num_layers", 3);
    af.max_context = GetInt(p, "max_context", 1024);
    af.temperature = GetParam(p, "temperature", 0.35);
    return std::unique_ptr<Estimator>(new AttentionFewShot(af));
  }
  return Status::InvalidArgument("unknown model: " + config.model);
}

/// Exactly the fields BuildModel reads: the model name, the seed and
/// every parameter, printed with %a so values one ulp apart differ. Keys
/// the fitted-model memo (Pipeline::SetModel).
std::string ModelSignature(const PipelineConfig& config) {
  std::string out = StrFormat("%s|%llu", config.model.c_str(),
                              static_cast<unsigned long long>(config.seed));
  for (const auto& [key, value] : config.params) {
    out += StrFormat("|%s=%a", key.c_str(), value);
  }
  return out;
}

}  // namespace

std::string PipelineConfig::Describe() const {
  std::string out = model + "(";
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("%s=%.4g", key.c_str(), value);
  }
  out += ")";
  std::vector<std::string> preps;
  if (impute) preps.push_back("imp");
  if (scaler != "none") preps.push_back(scaler);
  if (one_hot) preps.push_back("1hot");
  if (variance_threshold >= 0.0) preps.push_back("var");
  if (select_k_best > 0) {
    preps.push_back(StrFormat("k%d", select_k_best));
  }
  if (pca_components > 0) {
    preps.push_back(StrFormat("pca%d", pca_components));
  }
  if (quantile_binning) preps.push_back("bin");
  if (!preps.empty()) out = Join(preps, "+") + "|" + out;
  return out;
}

const std::vector<std::string>& KnownModels() {
  static const std::vector<std::string>* kModels =
      new std::vector<std::string>{
          "decision_tree",  "random_forest",       "extra_trees",
          "gradient_boosting", "adaboost",         "logistic_regression",
          "knn",            "naive_bayes",         "mlp",
          "attention_few_shot",
      };
  return *kModels;
}

bool ModelSupportsTask(const std::string& model, TaskType task) {
  if (IsClassification(task)) return true;
  return model == "decision_tree" || model == "random_forest" ||
         model == "extra_trees" || model == "gradient_boosting" ||
         model == "logistic_regression" || model == "knn" ||
         model == "mlp";
}

std::vector<std::string> FilterModelsForTask(
    const std::vector<std::string>& models, TaskType task) {
  std::vector<std::string> out;
  out.reserve(models.size());
  for (const std::string& m : models) {
    if (ModelSupportsTask(m, task)) out.push_back(m);
  }
  return out;
}

Result<Pipeline> BuildPipeline(const PipelineConfig& config) {
  Pipeline pipeline;
  if (config.impute) {
    pipeline.AddTransformer(std::make_unique<MeanModeImputer>());
  }
  if (config.one_hot) {
    pipeline.AddTransformer(std::make_unique<OneHotEncoder>());
  }
  if (config.scaler == "standard") {
    pipeline.AddTransformer(
        std::make_unique<Scaler>(ScalerKind::kStandard));
  } else if (config.scaler == "minmax") {
    pipeline.AddTransformer(std::make_unique<Scaler>(ScalerKind::kMinMax));
  } else if (config.scaler != "none") {
    return Status::InvalidArgument("unknown scaler: " + config.scaler);
  }
  if (config.quantile_binning) {
    pipeline.AddTransformer(std::make_unique<QuantileBinner>());
  }
  if (config.variance_threshold >= 0.0) {
    pipeline.AddTransformer(
        std::make_unique<VarianceThreshold>(config.variance_threshold));
  }
  if (config.select_k_best > 0) {
    pipeline.AddTransformer(std::make_unique<SelectKBest>(
        static_cast<size_t>(config.select_k_best)));
  }
  if (config.pca_components > 0) {
    pipeline.AddTransformer(std::make_unique<Pca>(
        static_cast<size_t>(config.pca_components)));
  }
  GREEN_ASSIGN_OR_RETURN(std::unique_ptr<Estimator> model,
                         BuildModel(config));
  pipeline.SetModel(std::move(model), ModelSignature(config));
  return pipeline;
}

double EstimateTrainCost(const PipelineConfig& config, size_t rows,
                         size_t features, int classes) {
  const double n = static_cast<double>(rows);
  const double d = static_cast<double>(features);
  const double k = static_cast<double>(classes);
  const auto& p = config.params;
  double cost = 2.0 * n * d;  // Preprocessing floor.
  if (config.model == "decision_tree") {
    cost += n * std::log2(std::max(2.0, n)) * d *
            GetParam(p, "max_depth", 8);
  } else if (config.model == "random_forest" ||
             config.model == "extra_trees") {
    const double sqrt_frac = std::sqrt(d) / std::max(1.0, d);
    const double frac = GetParam(p, "max_features_fraction", sqrt_frac);
    cost += GetParam(p, "num_trees", 32) * n *
            std::log2(std::max(2.0, n)) * d *
            (frac > 0 ? frac : sqrt_frac) * GetParam(p, "max_depth", 10) *
            (config.model == "extra_trees" ? 0.25 : 1.0);
  } else if (config.model == "gradient_boosting") {
    cost += GetParam(p, "num_rounds", 40) * k * n *
            std::log2(std::max(2.0, n)) * d *
            GetParam(p, "max_depth", 3) * 0.5;
  } else if (config.model == "adaboost") {
    cost += GetParam(p, "num_rounds", 30) * n *
            std::log2(std::max(2.0, n)) * d *
            GetParam(p, "max_depth", 2);
  } else if (config.model == "logistic_regression") {
    cost += GetParam(p, "epochs", 30) * 4.0 * n * d * k;
  } else if (config.model == "knn") {
    cost += n;
  } else if (config.model == "naive_bayes") {
    cost += 4.0 * n * d;
  } else if (config.model == "mlp") {
    cost += GetParam(p, "epochs", 40) * 4.0 * n *
            (d + k) * GetParam(p, "hidden_units", 32);
  } else if (config.model == "attention_few_shot") {
    cost += n;
  }
  return cost;
}

double EstimatePredictCost(const PipelineConfig& config, size_t train_rows,
                           size_t predict_rows, size_t features,
                           int classes) {
  const double n = static_cast<double>(train_rows);
  const double m = static_cast<double>(predict_rows);
  const double d = static_cast<double>(features);
  const double k = static_cast<double>(classes);
  const auto& p = config.params;
  double per_row = 2.0 * d;  // Preprocessing floor.
  if (config.model == "decision_tree") {
    per_row += 2.0 * GetParam(p, "max_depth", 8);
  } else if (config.model == "random_forest" ||
             config.model == "extra_trees") {
    per_row += GetParam(p, "num_trees", 32) *
               (2.0 * GetParam(p, "max_depth", 10) + k);
  } else if (config.model == "gradient_boosting") {
    per_row += 2.0 * GetParam(p, "num_rounds", 40) * k *
               GetParam(p, "max_depth", 3);
  } else if (config.model == "adaboost") {
    per_row += 2.0 * GetParam(p, "num_rounds", 30) *
               GetParam(p, "max_depth", 2);
  } else if (config.model == "logistic_regression") {
    per_row += 2.0 * d * k;
  } else if (config.model == "knn") {
    per_row += 3.0 * n * d;
  } else if (config.model == "naive_bayes") {
    per_row += 4.0 * d * k;
  } else if (config.model == "mlp") {
    const double h = GetParam(p, "hidden_units", 32);
    per_row += 2.0 * h * (d + k);
  } else if (config.model == "attention_few_shot") {
    per_row += 3.0 * std::min(n, 1024.0) *
               (GetParam(p, "embed_dim", 48) + d);
  }
  return per_row * m;
}

}  // namespace green
