#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "data/io.h"

namespace vs::data {

vs::Result<Table> GenerateSynthetic(const SyntheticOptions& options) {
  if (options.num_dimensions <= 0 || options.num_measures <= 0) {
    return vs::Status::InvalidArgument(
        "num_dimensions and num_measures must be positive");
  }
  if (options.correlation < 0.0 || options.correlation > 1.0) {
    return vs::Status::InvalidArgument("correlation must be in [0, 1]");
  }
  vs::Rng rng(options.seed);

  const int A = options.num_dimensions;
  const int M = options.num_measures;
  std::vector<std::vector<double>> dims(A);
  std::vector<std::vector<double>> measures(M);
  for (auto& d : dims) d.reserve(options.num_rows);
  for (auto& m : measures) m.reserve(options.num_rows);

  // Per-measure sensitivity to each dimension, used only when
  // correlation > 0.
  std::vector<std::vector<double>> weight(M, std::vector<double>(A, 0.0));
  if (options.correlation > 0.0) {
    for (int j = 0; j < M; ++j) {
      for (int i = 0; i < A; ++i) weight[j][i] = rng.NextDouble();
    }
  }

  const double c = options.correlation;
  std::vector<double> dim_row(A);
  for (size_t r = 0; r < options.num_rows; ++r) {
    for (int i = 0; i < A; ++i) {
      dim_row[i] = rng.NextDouble();
      dims[i].push_back(dim_row[i]);
    }
    for (int j = 0; j < M; ++j) {
      double u = rng.NextDouble();
      if (c > 0.0) {
        double drive = 0.0;
        double norm = 0.0;
        for (int i = 0; i < A; ++i) {
          drive += weight[j][i] * dim_row[i];
          norm += weight[j][i];
        }
        if (norm > 0.0) drive /= norm;
        u = (1.0 - c) * u + c * drive;
      }
      measures[j].push_back(u);
    }
  }

  std::vector<Field> fields;
  std::vector<ColumnPtr> columns;
  for (int i = 0; i < A; ++i) {
    fields.emplace_back(vs::StrFormat("d%d", i), DataType::kDouble,
                        FieldRole::kDimension);
    columns.push_back(std::make_shared<DoubleColumn>(std::move(dims[i])));
  }
  for (int j = 0; j < M; ++j) {
    fields.emplace_back(vs::StrFormat("m%d", j), DataType::kDouble,
                        FieldRole::kMeasure);
    columns.push_back(
        std::make_shared<DoubleColumn>(std::move(measures[j])));
  }
  VS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  return Table::Make(std::move(schema), std::move(columns));
}

namespace {

struct DimDef {
  const char* name;
  std::vector<std::string> levels;
};

std::vector<DimDef> DiabetesDimensions() {
  return {
      {"gender", {"Female", "Male"}},
      {"admission_type", {"Emergency", "Urgent", "Elective"}},
      {"age_group", {"[0-30)", "[30-50)", "[50-70)", "[70+)"}},
      {"insulin", {"No", "Down", "Steady", "Up"}},
      {"race", {"Caucasian", "AfricanAmerican", "Hispanic", "Asian", "Other"}},
      {"diag_group",
       {"Circulatory", "Respiratory", "Digestive", "Diabetes", "Injury",
        "Musculoskeletal"}},
      {"medical_specialty",
       {"InternalMedicine", "Cardiology", "Surgery", "FamilyPractice",
        "Emergency", "Orthopedics", "Nephrology", "Other"}},
  };
}

struct MeasureDef {
  const char* name;
  double base_mean;  ///< mean of the positive base distribution
  double noise;      ///< lognormal sigma of the per-row noise
};

std::vector<MeasureDef> DiabetesMeasures() {
  return {
      {"time_in_hospital", 4.5, 0.45},
      {"num_lab_procedures", 43.0, 0.30},
      {"num_procedures", 1.5, 0.60},
      {"num_medications", 16.0, 0.35},
      {"number_outpatient", 0.8, 0.90},
      {"number_emergency", 0.5, 1.00},
      {"number_inpatient", 0.9, 0.80},
      {"number_diagnoses", 7.4, 0.25},
  };
}

}  // namespace

std::vector<int32_t> DiabetesDimensionCardinalities() {
  std::vector<int32_t> out;
  for (const DimDef& d : DiabetesDimensions()) {
    out.push_back(static_cast<int32_t>(d.levels.size()));
  }
  return out;
}

vs::Result<Table> GenerateDiabetes(const DiabetesOptions& options) {
  if (options.effect_sigma < 0.0) {
    return vs::Status::InvalidArgument("effect_sigma must be >= 0");
  }
  vs::Rng rng(options.seed);
  const auto dim_defs = DiabetesDimensions();
  const auto measure_defs = DiabetesMeasures();
  const size_t A = dim_defs.size();
  const size_t M = measure_defs.size();

  // Zipf-skewed level frequencies per dimension (clinical data is skewed).
  std::vector<std::vector<double>> level_weights(A);
  for (size_t d = 0; d < A; ++d) {
    const size_t card = dim_defs[d].levels.size();
    level_weights[d].resize(card);
    for (size_t l = 0; l < card; ++l) {
      level_weights[d][l] = 1.0 / std::pow(static_cast<double>(l + 1), 0.7);
    }
  }

  // Multiplicative effect of each (dimension, level) on each measure, drawn
  // once: effect = exp(sigma * N(0,1)).  This is what makes query subsets
  // deviate from the reference distribution.
  std::vector<std::vector<std::vector<double>>> effect(A);
  for (size_t d = 0; d < A; ++d) {
    effect[d].resize(dim_defs[d].levels.size());
    for (auto& per_level : effect[d]) {
      per_level.resize(M);
      for (size_t m = 0; m < M; ++m) {
        per_level[m] = std::exp(options.effect_sigma * rng.NextGaussian());
      }
    }
  }

  // Build categorical dimension columns.
  std::vector<std::shared_ptr<CategoricalColumn>> dim_cols(A);
  for (size_t d = 0; d < A; ++d) {
    dim_cols[d] = std::make_shared<CategoricalColumn>();
    dim_cols[d]->Reserve(options.num_rows);
    for (const std::string& level : dim_defs[d].levels) {
      dim_cols[d]->InternLabel(level);
    }
  }
  std::vector<std::vector<double>> measure_data(M);
  for (auto& m : measure_data) m.reserve(options.num_rows);

  std::vector<int32_t> codes(A);
  for (size_t r = 0; r < options.num_rows; ++r) {
    for (size_t d = 0; d < A; ++d) {
      codes[d] =
          static_cast<int32_t>(rng.NextDiscrete(level_weights[d]));
      dim_cols[d]->AppendCode(codes[d]);
    }
    for (size_t m = 0; m < M; ++m) {
      double factor = 1.0;
      for (size_t d = 0; d < A; ++d) {
        factor *= effect[d][static_cast<size_t>(codes[d])][m];
      }
      const double noise =
          std::exp(measure_defs[m].noise * rng.NextGaussian());
      measure_data[m].push_back(measure_defs[m].base_mean * factor * noise);
    }
  }

  std::vector<Field> fields;
  std::vector<ColumnPtr> columns;
  for (size_t d = 0; d < A; ++d) {
    fields.emplace_back(dim_defs[d].name, DataType::kString,
                        FieldRole::kDimension);
    columns.push_back(dim_cols[d]);
  }
  for (size_t m = 0; m < M; ++m) {
    fields.emplace_back(measure_defs[m].name, DataType::kDouble,
                        FieldRole::kMeasure);
    columns.push_back(
        std::make_shared<DoubleColumn>(std::move(measure_data[m])));
  }
  VS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  return Table::Make(std::move(schema), std::move(columns));
}

// ---- Large-scale testbed -------------------------------------------------

namespace {

/// Counter-based draw: a pure function of (seed, stream, counter), so any
/// cell of the dataset can be computed independently — the property that
/// makes chunked materialization trivially deterministic (chunk size can
/// never change the data) and lets measures re-derive the dimension codes
/// of their row without a sequential pass.
uint64_t HashDraw(uint64_t seed, uint64_t stream, uint64_t counter) {
  SplitMix64 outer(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  SplitMix64 inner(outer.Next() ^
                   (0xbf58476d1ce4e5b9ULL * (counter + 1)));
  return inner.Next();
}

/// Top 53 bits to a uniform double in [0, 1).
double U01(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Standard normal via Box–Muller over two counter-based uniforms.
double GaussDraw(uint64_t seed, uint64_t stream, uint64_t counter) {
  const double u1 =
      std::max(U01(HashDraw(seed, stream * 2, counter)), 1e-300);
  const double u2 = U01(HashDraw(seed, stream * 2 + 1, counter));
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// Stream-id layout: disjoint ranges keep every column and every purpose
/// on an independent hash stream.
constexpr uint64_t kStreamCategorical = 0;     ///< + dim index
constexpr uint64_t kStreamNumeric = 1 << 10;   ///< + dim index
constexpr uint64_t kStreamMeasure = 2 << 10;   ///< + measure index
constexpr uint64_t kStreamEffect = 3 << 10;    ///< + dim * M + measure

/// Shared generation core: validated options plus the precomputed zipf
/// CDFs and (dimension level, measure) effect tables both the in-memory
/// builder and the streaming writer draw from.
class LargeScaleCore {
 public:
  static vs::Result<LargeScaleCore> Make(const LargeScaleOptions& options) {
    if (options.num_rows == 0 || options.num_rows > 200'000'000ULL) {
      return vs::Status::InvalidArgument(
          "num_rows must be in [1, 200000000]");
    }
    if (options.cardinalities.size() > 64 || options.num_numeric_dims > 64 ||
        options.num_measures > 64) {
      return vs::Status::InvalidArgument(
          "at most 64 columns of each kind");
    }
    if (options.cardinalities.empty() && options.num_numeric_dims <= 0) {
      return vs::Status::InvalidArgument("need at least one dimension");
    }
    if (options.num_numeric_dims < 0 || options.num_measures <= 0) {
      return vs::Status::InvalidArgument(
          "num_numeric_dims must be >= 0 and num_measures >= 1");
    }
    for (const int32_t card : options.cardinalities) {
      if (card < 2 || card > (1 << 20)) {
        return vs::Status::InvalidArgument(
            "each cardinality must be in [2, 1048576]");
      }
    }
    if (!(options.zipf_s >= 0.0 && options.zipf_s <= 10.0) ||
        !(options.measure_sigma >= 0.0 && options.measure_sigma <= 10.0) ||
        !(options.effect_sigma >= 0.0 && options.effect_sigma <= 10.0)) {
      return vs::Status::InvalidArgument(
          "zipf_s / measure_sigma / effect_sigma must be in [0, 10]");
    }
    if (options.chunk_rows == 0) {
      return vs::Status::InvalidArgument("chunk_rows must be positive");
    }
    return LargeScaleCore(options);
  }

  const LargeScaleOptions& options() const { return options_; }
  size_t num_categorical() const { return options_.cardinalities.size(); }
  size_t num_numeric() const {
    return static_cast<size_t>(options_.num_numeric_dims);
  }
  size_t num_measures() const {
    return static_cast<size_t>(options_.num_measures);
  }

  vs::Result<Schema> MakeSchema() const {
    std::vector<Field> fields;
    for (size_t d = 0; d < num_categorical(); ++d) {
      fields.emplace_back(vs::StrFormat("g%zu", d), DataType::kString,
                          FieldRole::kDimension);
    }
    for (size_t d = 0; d < num_numeric(); ++d) {
      fields.emplace_back(vs::StrFormat("d%zu", d), DataType::kDouble,
                          FieldRole::kDimension);
    }
    for (size_t m = 0; m < num_measures(); ++m) {
      fields.emplace_back(vs::StrFormat("m%zu", m), DataType::kDouble,
                          FieldRole::kMeasure);
    }
    return Schema::Make(std::move(fields));
  }

  std::vector<std::string> Dictionary(size_t dim) const {
    const int32_t card = options_.cardinalities[dim];
    std::vector<std::string> labels;
    labels.reserve(static_cast<size_t>(card));
    for (int32_t level = 0; level < card; ++level) {
      labels.push_back(vs::StrFormat("g%zu_%d", dim, level));
    }
    return labels;
  }

  int32_t CatCode(size_t dim, uint64_t row) const {
    const double u =
        U01(HashDraw(options_.seed, kStreamCategorical + dim, row));
    const std::vector<double>& cdf = zipf_cdf_[dim];
    const size_t index = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return static_cast<int32_t>(std::min(index, cdf.size() - 1));
  }

  double NumericValue(size_t dim, uint64_t row) const {
    return U01(HashDraw(options_.seed, kStreamNumeric + dim, row));
  }

  double MeasureValue(size_t m, uint64_t row) const {
    double factor = 1.0;
    for (size_t d = 0; d < num_categorical(); ++d) {
      const auto code = static_cast<size_t>(CatCode(d, row));
      factor *= effect_[d][code * num_measures() + m];
    }
    const double noise = std::exp(
        options_.measure_sigma *
        GaussDraw(options_.seed, kStreamMeasure + m, row));
    return base_mean_[m] * factor * noise;
  }

  /// Normalized zipf level probabilities of dimension \p dim (tests pin
  /// observed frequencies against these).
  std::vector<double> LevelProbabilities(size_t dim) const {
    std::vector<double> probs = zipf_cdf_[dim];
    for (size_t l = probs.size() - 1; l > 0; --l) {
      probs[l] -= probs[l - 1];
    }
    return probs;
  }

 private:
  explicit LargeScaleCore(const LargeScaleOptions& options)
      : options_(options) {
    zipf_cdf_.resize(num_categorical());
    effect_.resize(num_categorical());
    for (size_t d = 0; d < num_categorical(); ++d) {
      const auto card = static_cast<size_t>(options_.cardinalities[d]);
      std::vector<double>& cdf = zipf_cdf_[d];
      cdf.resize(card);
      double total = 0.0;
      for (size_t l = 0; l < card; ++l) {
        total += 1.0 /
                 std::pow(static_cast<double>(l + 1), options_.zipf_s);
        cdf[l] = total;
      }
      for (double& c : cdf) c /= total;
      std::vector<double>& effects = effect_[d];
      effects.resize(card * num_measures());
      for (size_t l = 0; l < card; ++l) {
        for (size_t m = 0; m < num_measures(); ++m) {
          effects[l * num_measures() + m] = std::exp(
              options_.effect_sigma *
              GaussDraw(options_.seed,
                        kStreamEffect + d * num_measures() + m, l));
        }
      }
    }
    base_mean_.resize(num_measures());
    for (size_t m = 0; m < num_measures(); ++m) {
      base_mean_[m] = 5.0 * static_cast<double>(m + 1);
    }
  }

  LargeScaleOptions options_;
  std::vector<std::vector<double>> zipf_cdf_;  ///< per categorical dim
  std::vector<std::vector<double>> effect_;    ///< [dim][level * M + m]
  std::vector<double> base_mean_;              ///< per measure
};

}  // namespace

vs::Result<Table> GenerateLargeScale(const LargeScaleOptions& options) {
  VS_ASSIGN_OR_RETURN(LargeScaleCore core, LargeScaleCore::Make(options));
  const uint64_t rows = options.num_rows;

  std::vector<Field> fields;
  std::vector<ColumnPtr> columns;
  for (size_t d = 0; d < core.num_categorical(); ++d) {
    auto col = std::make_shared<CategoricalColumn>();
    col->Reserve(rows);
    for (const std::string& label : core.Dictionary(d)) {
      col->InternLabel(label);
    }
    for (uint64_t r = 0; r < rows; ++r) {
      col->AppendCode(core.CatCode(d, r));
    }
    fields.emplace_back(vs::StrFormat("g%zu", d), DataType::kString,
                        FieldRole::kDimension);
    columns.push_back(std::move(col));
  }
  for (size_t d = 0; d < core.num_numeric(); ++d) {
    std::vector<double> values(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      values[r] = core.NumericValue(d, r);
    }
    fields.emplace_back(vs::StrFormat("d%zu", d), DataType::kDouble,
                        FieldRole::kDimension);
    columns.push_back(std::make_shared<DoubleColumn>(std::move(values)));
  }
  for (size_t m = 0; m < core.num_measures(); ++m) {
    std::vector<double> values(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      values[r] = core.MeasureValue(m, r);
    }
    fields.emplace_back(vs::StrFormat("m%zu", m), DataType::kDouble,
                        FieldRole::kMeasure);
    columns.push_back(std::make_shared<DoubleColumn>(std::move(values)));
  }
  VS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  return Table::Make(std::move(schema), std::move(columns));
}

vs::Status GenerateLargeScaleToFile(const LargeScaleOptions& options,
                                    const std::string& path) {
  VS_ASSIGN_OR_RETURN(LargeScaleCore core, LargeScaleCore::Make(options));
  VS_ASSIGN_OR_RETURN(Schema schema, core.MakeSchema());
  VS_ASSIGN_OR_RETURN(auto writer,
                      TableStreamWriter::Open(path, schema,
                                              options.num_rows));
  const uint64_t rows = options.num_rows;
  const uint64_t chunk = options.chunk_rows;
  size_t column = 0;

  std::vector<int32_t> codes;
  for (size_t d = 0; d < core.num_categorical(); ++d) {
    const std::vector<std::string> dictionary = core.Dictionary(d);
    VS_RETURN_IF_ERROR(writer->BeginColumn(column++, &dictionary));
    for (uint64_t begin = 0; begin < rows; begin += chunk) {
      const uint64_t n = std::min(chunk, rows - begin);
      codes.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        codes[i] = core.CatCode(d, begin + i);
      }
      VS_RETURN_IF_ERROR(writer->AppendCodes(codes.data(), n));
    }
  }
  std::vector<double> values;
  for (size_t d = 0; d < core.num_numeric(); ++d) {
    VS_RETURN_IF_ERROR(writer->BeginColumn(column++, nullptr));
    for (uint64_t begin = 0; begin < rows; begin += chunk) {
      const uint64_t n = std::min(chunk, rows - begin);
      values.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        values[i] = core.NumericValue(d, begin + i);
      }
      VS_RETURN_IF_ERROR(writer->AppendDoubles(values.data(), n));
    }
  }
  for (size_t m = 0; m < core.num_measures(); ++m) {
    VS_RETURN_IF_ERROR(writer->BeginColumn(column++, nullptr));
    for (uint64_t begin = 0; begin < rows; begin += chunk) {
      const uint64_t n = std::min(chunk, rows - begin);
      values.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        values[i] = core.MeasureValue(m, begin + i);
      }
      VS_RETURN_IF_ERROR(writer->AppendDoubles(values.data(), n));
    }
  }
  return writer->Finish();
}

vs::Result<uint64_t> LargeScaleFileBytes(const LargeScaleOptions& options) {
  VS_ASSIGN_OR_RETURN(LargeScaleCore core, LargeScaleCore::Make(options));
  // Header: magic + version + num_rows + num_columns.
  uint64_t bytes = 4 + 4 + 8 + 4;
  const uint64_t rows = options.num_rows;
  for (size_t d = 0; d < core.num_categorical(); ++d) {
    const std::string name = vs::StrFormat("g%zu", d);
    bytes += 4 + name.size() + 3;  // name + type + role + has_nulls
    bytes += 4;                    // dictionary size
    for (const std::string& label : core.Dictionary(d)) {
      bytes += 4 + label.size();
    }
    bytes += rows * sizeof(int32_t);
  }
  for (size_t d = 0; d < core.num_numeric(); ++d) {
    bytes += 4 + vs::StrFormat("d%zu", d).size() + 3;
    bytes += rows * sizeof(double);
  }
  for (size_t m = 0; m < core.num_measures(); ++m) {
    bytes += 4 + vs::StrFormat("m%zu", m).size() + 3;
    bytes += rows * sizeof(double);
  }
  return bytes;
}

}  // namespace vs::data
