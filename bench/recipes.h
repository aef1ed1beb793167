#ifndef COPYATTACK_BENCH_RECIPES_H_
#define COPYATTACK_BENCH_RECIPES_H_

#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace copyattack::bench {

/// The row emitter a recipe's `run` writes through (bench/recipes.cc).
class RecipeRun;

/// One reproducible experiment: a paper table/figure or an ablation.
/// `name` is the CSV stem it writes and `columns` that CSV's header.
struct Recipe {
  const char* name;
  const char* doc;
  std::vector<std::string> columns;
  void (*run)(RecipeRun& run);
};

/// The recipe table, in paper order.
std::span<const Recipe> Recipes();

/// Looks a recipe up by name; nullptr when there is none.
const Recipe* FindRecipe(const std::string& name);

/// Runs `recipe` from the current directory, echoing its rows to `out`.
/// On success the rows replace `bench_results/<name>.csv`; a failed run
/// leaves that file untouched. Returns a process exit code: 0 on success,
/// 1 when the recipe or the CSV write fails.
int RunRecipe(const Recipe& recipe, const std::string& config,
              std::ostream& out);

}  // namespace copyattack::bench

#endif  // COPYATTACK_BENCH_RECIPES_H_
