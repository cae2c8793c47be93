/// Domain example: exploring a clinical (DIAB-shaped) dataset.
///
/// Shows the workflow the paper's introduction motivates: an analyst
/// issues a SQL query over a patient cohort, ViewSeeker surfaces the
/// aggregate views where that cohort deviates most from the population,
/// the analyst steers with a handful of labels, and the session is saved
/// for reuse.

#include <cstdio>

#include "core/experiment.h"
#include "core/recommender.h"
#include "core/seeker.h"
#include "core/session_io.h"
#include "core/simulated_user.h"
#include "data/generator.h"
#include "data/predicate.h"
#include "data/query.h"

namespace {

void PrintViewAsChart(const vs::data::Table& table,
                      const vs::core::ViewSpec& spec,
                      const vs::data::SelectionVector& query) {
  vs::data::GroupByExecutor executor(&table);
  auto mat = vs::core::MaterializeView(executor, spec, query);
  if (!mat.ok()) return;
  std::printf("  %s\n", spec.Id().c_str());
  for (size_t b = 0; b < mat->target_dist.size(); ++b) {
    std::printf("    %-18s |", mat->target.labels()[b].c_str());
    const int target_width = static_cast<int>(mat->target_dist[b] * 40);
    for (int i = 0; i < target_width; ++i) std::printf("#");
    std::printf("\n    %-18s |", "(reference)");
    const int ref_width = static_cast<int>(mat->reference_dist[b] * 40);
    for (int i = 0; i < ref_width; ++i) std::printf("-");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace vs;

  data::DiabetesOptions options;
  options.num_rows = 50000;
  auto table = data::GenerateDiabetes(options);
  if (!table.ok()) return 1;

  // The analyst's cohort, expressed through the SQL front end's WHERE
  // grammar (parsed once to show the glue; the selection drives the rest).
  auto parsed = data::ParseQuery(
      "SELECT AVG(num_medications) FROM diab "
      "WHERE insulin = 'Up' AND age_group = '[50-70)' "
      "GROUP BY diag_group");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto query = data::SelectRows(*table, parsed->query.filter);
  std::printf("cohort: insulin=Up, age 50-70 -> %zu of %zu patients\n\n",
              query->size(), table->num_rows());

  auto views = core::EnumerateViews(*table, {});
  auto registry = core::UtilityFeatureRegistry::Default();
  auto matrix =
      core::FeatureMatrix::Build(&*table, *views, *query, &registry, {});
  if (!matrix.ok()) return 1;

  // What a fixed deviation-only recommender (SeeDB-style) would show:
  auto by_emd = core::RecommendByFeatureName(*matrix, "EMD", 3);
  std::printf("SeeDB-style top views by EMD alone:\n");
  for (size_t v : *by_emd) {
    std::printf("  %s\n", matrix->views()[v].Id().c_str());
  }

  // Interactive refinement: the analyst actually cares about a composite
  // of deviation and chart usability (simulated here).
  core::IdealUtilityFunction ideal = core::Table2Presets()[9];  // w/ usability
  auto user = core::SimulatedUser::Make(&matrix->normalized(), ideal);
  if (!user.ok()) return 1;

  core::ViewSeekerOptions seeker_options;
  seeker_options.k = 3;
  auto seeker = core::ViewSeeker::Make(&*matrix, seeker_options);
  int labels = 0;
  while (labels < 40 && seeker->num_unlabeled() > 0) {
    auto q = seeker->NextQueries();
    if (!q.ok()) break;
    auto st = seeker->SubmitLabel((*q)[0], *user->Label((*q)[0]));
    if (!st.ok()) break;
    ++labels;
  }

  auto topk = seeker->RecommendTopK();
  std::printf("\nViewSeeker top views after %d labels (ideal: %s):\n",
              labels, ideal.name().c_str());
  for (size_t v : *topk) {
    PrintViewAsChart(*table, matrix->views()[v], *query);
  }

  // Persist the session: restoring it replays the labels into a
  // bit-identical view utility estimator, Algorithm 1's output.
  auto saved = core::SaveSession(*seeker);
  if (saved.ok()) {
    std::printf("\nsaved session (%zu labels):\n%s",
                seeker->num_labeled(), saved->c_str());
  }
  return 0;
}
