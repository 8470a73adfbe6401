// Figure 9a: simple box-sum index sizes.
//
// Paper result (6M objects, 8KB pages): the aR-tree is smallest (linear
// space); BAT and ECDFu are comparable with a logarithmic overhead; ECDFq is
// by far the largest (every update/bulk region materializes prefix borders).
// This bench reproduces the ordering aR < BAT ~ ECDFu << ECDFq and prints
// sizes in MB plus the ratio to the aR-tree, then one exact
// "BASELINE backend=<b> pages=<n>" line per index on stdout (the
// fig9a_pages_small ctest diffs these against
// bench/baselines/fig9a_pages_small.txt).

#include "bench/suite.h"

using namespace boxagg;
using namespace boxagg::bench;

int main() {
  Config cfg = Config::FromEnv();
  cfg.Log("Figure 9a: index sizes (simple box-sum)");

  workload::RectConfig rc;
  rc.n = cfg.n;
  rc.seed = cfg.seed;
  auto objects = workload::UniformRects(rc);

  SimpleSuite suite(cfg, objects);

  double ar = suite.ar_storage().SizeMb();
  double bu = suite.ecdfu_storage().SizeMb();
  double bq = suite.ecdfq_storage().SizeMb();
  double bat = suite.bat_storage().SizeMb();

  obs::LogInfo("index sizes (MB):");
  obs::LogInfo("  %-8s %12s %12s", "index", "size(MB)", "vs aR");
  obs::LogInfo("  %-8s %12.1f %12.2f", "aR", ar, 1.0);
  obs::LogInfo("  %-8s %12.1f %12.2f", "ECDFu", bu, bu / ar);
  obs::LogInfo("  %-8s %12.1f %12.2f", "ECDFq", bq, bq / ar);
  obs::LogInfo("  %-8s %12.1f %12.2f", "BAT", bat, bat / ar);
  obs::LogInfo(
      "paper shape check: aR smallest=%s, ECDFq largest=%s, "
      "BAT within ~4x of ECDFu=%s",
      (ar <= bu && ar <= bq && ar <= bat) ? "yes" : "NO",
      (bq >= bu && bq >= bat) ? "yes" : "NO",
      (bat < 4 * bu && bu < 4 * bat) ? "yes" : "NO");
  const std::pair<const char*, Storage*> backends[] = {
      {"ar", &suite.ar_storage()},
      {"ecdfu", &suite.ecdfu_storage()},
      {"ecdfq", &suite.ecdfq_storage()},
      {"bat", &suite.bat_storage()}};
  for (const auto& [name, storage] : backends) {
    std::printf("BASELINE backend=%s pages=%llu\n", name,
                static_cast<unsigned long long>(
                    storage->file()->live_page_count()));
  }
  return 0;
}
