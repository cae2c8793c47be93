/// The actual interactive tool: ViewSeeker driving a terminal session with
/// a *human* in the loop.
///
///   interactive_cli [--csv=<path>] [--demo]
///
/// Each iteration renders the proposed view as a pair of ASCII
/// histograms (target vs reference) and asks for a 0..1 interestingness
/// score; `t` shows the current top-5, `q` quits and prints the saved
/// session.  --demo answers automatically (for CI and for
/// trying the flow without typing).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "core/seeker.h"
#include "core/session_io.h"
#include "core/simulated_user.h"
#include "core/view_data.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/predicate.h"

namespace {

using namespace vs;

void RenderView(const data::Table& table, const core::ViewSpec& spec,
                const data::SelectionVector& query) {
  data::GroupByExecutor executor(&table);
  auto mat = core::MaterializeView(executor, spec, query);
  if (!mat.ok()) {
    std::printf("  (failed to render: %s)\n",
                mat.status().ToString().c_str());
    return;
  }
  std::printf("\n  view: %s\n", spec.Id().c_str());
  std::printf("  %-20s %-28s %s\n", "bin", "target (your query)",
              "reference (all data)");
  for (size_t b = 0; b < mat->target_dist.size(); ++b) {
    std::string target_bar(
        static_cast<size_t>(mat->target_dist[b] * 24), '#');
    std::string ref_bar(
        static_cast<size_t>(mat->reference_dist[b] * 24), '-');
    std::printf("  %-20s %-28s %s\n",
                mat->target.labels()[b].substr(0, 20).c_str(),
                target_bar.c_str(), ref_bar.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--demo") == 0) demo = true;
  }

  // Load the user's CSV, or fall back to the bundled clinical dataset.
  data::Table table;
  if (!csv_path.empty()) {
    auto loaded = data::ReadCsvFile(csv_path, {});
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    table = std::move(*loaded);
    std::printf("loaded %zu rows from %s\n", table.num_rows(),
                csv_path.c_str());
  } else {
    data::DiabetesOptions options;
    options.num_rows = 20000;
    table = *data::GenerateDiabetes(options);
    std::printf("no --csv given; using the bundled 20k-row clinical "
                "dataset\n");
  }

  // Query subset: for the demo, a fixed cohort; with a custom CSV, the
  // first dimension's first label.
  data::PredicatePtr filter;
  if (csv_path.empty()) {
    filter = data::Compare("age_group", data::CompareOp::kEq,
                           data::Value("[70+)"));
  } else {
    const auto dims =
        table.schema().FieldsWithRole(data::FieldRole::kDimension);
    if (dims.empty()) {
      std::fprintf(stderr, "CSV has no string (dimension) columns\n");
      return 1;
    }
    const auto* cat = dynamic_cast<const data::CategoricalColumn*>(
        table.column(dims[0]).get());
    filter = data::Compare(table.schema().field(dims[0]).name,
                           data::CompareOp::kEq,
                           data::Value(cat->label(0)));
  }
  auto query = data::SelectRows(table, filter);
  if (!query.ok() || query->empty()) {
    std::fprintf(stderr, "query subset is empty\n");
    return 1;
  }
  std::printf("query: %s -> %zu rows\n", filter->ToString().c_str(),
              query->size());

  auto views = core::EnumerateViews(table, {});
  if (!views.ok()) {
    std::fprintf(stderr, "%s\n", views.status().ToString().c_str());
    return 1;
  }
  auto registry = core::UtilityFeatureRegistry::Default();
  auto matrix =
      core::FeatureMatrix::Build(&table, *views, *query, &registry, {});
  if (!matrix.ok()) {
    std::fprintf(stderr, "%s\n", matrix.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu candidate views\n", matrix->num_views());

  core::ViewSeekerOptions options;
  options.k = 5;
  auto seeker = core::ViewSeeker::Make(&*matrix, options);
  if (!seeker.ok()) return 1;

  // Demo oracle (only used with --demo).
  auto demo_user = core::SimulatedUser::Make(&matrix->normalized(),
                                             core::Table2Presets()[6]);

  std::printf("\nScore each view 0 (boring) .. 1 (fascinating).  Commands: "
              "t = show top-5, q = quit.\n");
  int iterations = 0;
  while (seeker->num_unlabeled() > 0) {
    auto queries = seeker->NextQueries();
    if (!queries.ok()) break;
    const size_t view = (*queries)[0];
    RenderView(table, matrix->views()[view], *query);

    double label = -1.0;
    if (demo) {
      label = demo_user.ok() ? *demo_user->Label(view) : 0.5;
      std::printf("  score> %.2f (demo)\n", label);
      if (++iterations >= 12) {
        std::printf("  (demo: stopping after 12 labels)\n");
        auto st = seeker->SubmitLabel(view, label);
        if (!st.ok()) break;
        break;
      }
    } else {
      while (true) {
        std::printf("  score> ");
        std::string line;
        if (!std::getline(std::cin, line)) {
          label = -1.0;
          break;
        }
        if (line == "q") {
          label = -1.0;
          break;
        }
        if (line == "t") {
          auto topk = seeker->RecommendTopK();
          if (topk.ok()) {
            std::printf("  current top-5:\n");
            for (size_t v : *topk) {
              std::printf("    %s\n", matrix->views()[v].Id().c_str());
            }
          } else {
            std::printf("  (no labels yet)\n");
          }
          continue;
        }
        std::istringstream iss(line);
        if (iss >> label && label >= 0.0 && label <= 1.0) break;
        std::printf("  please enter a number in [0, 1], or t/q\n");
      }
      if (label < 0.0) break;
    }
    auto st = seeker->SubmitLabel(view, label);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      break;
    }
  }

  auto topk = seeker->RecommendTopK();
  if (topk.ok()) {
    std::printf("\nfinal top-5 recommendation (%zu labels):\n",
                seeker->num_labeled());
    for (size_t v : *topk) {
      RenderView(table, matrix->views()[v], *query);
    }
    // Restoring this text replays the labels into a bit-identical
    // utility estimator.
    auto saved = core::SaveSession(*seeker);
    if (saved.ok()) {
      std::printf("\nsaved session:\n%s", saved->c_str());
    }
  } else {
    std::printf("\nno labels were provided; nothing to recommend.\n");
  }
  return 0;
}
