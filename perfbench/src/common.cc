#include <cstdio>

#include "common.h"
#include "core/box_sum_index.h"
#include "harness.h"
#include "storage/page_header.h"

namespace perfbench {

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

Expected SimpleOracle(const boxagg::NaiveBoxSum& naive, const Box& q) {
  constexpr int kDims = 2;
  constexpr uint32_t kSigns = 1u << kDims;
  Point corner[kSigns];
  for (uint32_t s = 0; s < kSigns; ++s) {
    corner[s] = boxagg::QueryCorner(q, s, kDims);
  }
  double partial[kSigns] = {};
  double intersecting = 0;
  for (const BoxObject& o : naive.objects()) {
    for (uint32_t s = 0; s < kSigns; ++s) {
      if (corner[s].Dominates(boxagg::StorageCorner(o.box, s, kDims), kDims)) {
        partial[s] += o.value;
      }
    }
    if (o.box.Intersects(q, kDims)) intersecting += std::fabs(o.value);
  }
  Expected e;
  e.value = naive.Sum(q);
  e.magnitude = intersecting;
  for (double p : partial) e.magnitude += std::fabs(p);
  return e;
}

void ReportCounts(const CountSignature& c, Report* r) {
  const double q = static_cast<double>(c.queries);
  const double ins = static_cast<double>(c.inserts);
  const double ops = q + ins;
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  r->PerLayer("batree.node_visits_per_query",
              Ratio(u(c.obs.TotalNodeVisits()), q), "count");
  for (int l = 0; l < 8; ++l) {
    r->PerLayer("batree.visits_l" + std::to_string(l),
                Ratio(u(c.obs.node_visits[l]), q), "count");
  }
  r->PerLayer("batree.border_probes_per_query",
              Ratio(u(c.obs.border_probes), q), "count");
  r->PerLayer("batree.pages_alloc_per_insert", Ratio(u(c.page_allocs), ins),
              "count");
  const uint64_t corners =
      c.obs.corner_probes_issued + c.obs.corner_probes_deduped;
  r->PerLayer("core.dedup_frac",
              Ratio(u(c.obs.corner_probes_deduped), u(corners)), "fraction");
  r->PerLayer("bufferpool.logical_per_query",
              Ratio(u(c.query_io.logical_reads), q), "count");
  r->PerLayer("bufferpool.hit_rate", c.io.HitRate(), "fraction");
  r->PerLayer("bufferpool.evictions_per_op", Ratio(u(c.io.evictions), ops),
              "count");
  r->PerLayer("bufferpool.dirty_writebacks_per_insert",
              Ratio(u(c.io.dirty_writebacks), ins), "count");
  r->PerLayer("bufferpool.probe_fetches_saved_per_query",
              Ratio(u(c.query_io.probe_fetches_saved), q), "count");
  r->PerLayer("pagefile.reads_per_op", Ratio(u(c.io.physical_reads), ops),
              "count");
  r->PerLayer("pagefile.writes_per_op", Ratio(u(c.io.physical_writes), ops),
              "count");
  r->PerLayer("io.phys_reads_per_query",
              Ratio(u(c.query_io.physical_reads), q), "count");
  r->PerLayer("io.phys_ios_per_insert", Ratio(u(c.insert_io.TotalIos()), ins),
              "count");
}

void ReportSetup(const SetupTimes& t, size_t objects, uint32_t page_size,
                 Report* r) {
  r->E2e("setup_s", Median(t.total_s), "s");
  const double bytes =
      static_cast<double>(t.pages) * static_cast<double>(page_size);
  r->E2e("index_bytes_per_object", Ratio(bytes, static_cast<double>(objects)),
         "B");
  r->PerLayer("build.bulkload_s", Median(t.bulkload_s), "s");
  r->PerLayer("build.flush_s", Median(t.flush_s), "s");
  r->PerLayer("build.pages", static_cast<double>(t.pages), "count");
}

void ReportCheck(const AnswerCheck& c, Report* r) {
  r->failed += c.wrong;
  r->PerLayer("check.answers_checked", static_cast<double>(c.checked), "count");
  r->PerLayer("check.max_rel_err", c.max_rel_err, "fraction");
  r->PerLayer("check.max_err_over_bound", c.max_err_over_bound, "fraction");
  if (c.wrong > 0) {
    r->Error(std::to_string(c.wrong) + " of " + std::to_string(c.checked) +
             " checked answers exceed the error bound");
  }
}

void ReportLatency(const std::vector<Samples>& windows, Report* r) {
  std::vector<double> ops, step50, query50, query90;
  std::vector<double> all_steps, all_queries;
  for (const Samples& w : windows) {
    ops.push_back(w.OpsPerSec());
    step50.push_back(Median(w.step_us));
    query50.push_back(Median(w.query_us));
    query90.push_back(Quantile(w.query_us, 0.90));
    all_steps.insert(all_steps.end(), w.step_us.begin(), w.step_us.end());
    all_queries.insert(all_queries.end(), w.query_us.begin(), w.query_us.end());
  }
  r->E2e("ops_per_s", Median(ops), "1/s");
  r->E2e("step_p50_us", Median(step50), "us");
  r->E2e("query_p50_us", Median(query50), "us");
  r->E2e("query_p90_us", Median(query90), "us");
  r->PerLayer("client.step_p90_us", Quantile(all_steps, 0.90), "us");
  r->PerLayer("client.step_p99_us", Quantile(all_steps, 0.99), "us");
  r->PerLayer("client.query_p99_us", Quantile(all_queries, 0.99), "us");
  r->PerLayer("client.step_samples", static_cast<double>(all_steps.size()),
              "count");
  r->PerLayer("client.query_samples", static_cast<double>(all_queries.size()),
              "count");
}

void ReportTrace(const TracedPhase& t, const std::string& dump_path,
                 Report* r) {
  const Attribution a = Attribute(t.spans, t.start_ns, t.end_ns);
  std::vector<double> morsel_us, read_us, write_us;
  double batch_ns = 0, morsel_ns = 0, read_ns = 0, write_ns = 0;
  for (const SpanRecord& s : t.spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.layer == Layer::kExecBatch) {
      batch_ns += d;
    } else if (s.layer == Layer::kExecMorsel) {
      morsel_ns += d;
      morsel_us.push_back(d / 1e3);
    } else if (s.layer == Layer::kPagefileRead) {
      read_ns += d;
      read_us.push_back(d / 1e3);
    } else if (s.layer == Layer::kPagefileWrite) {
      write_ns += d;
      write_us.push_back(d / 1e3);
    }
  }
  const double answers = static_cast<double>(t.answers);
  const double points = static_cast<double>(t.inserts) * 4;
  const auto us_per = [&](Layer l, double n) {
    return Ratio(a.Self(l) / 1e3, n);
  };
  r->PerLayer("exec.morsel_p50_us", Median(morsel_us), "us");
  r->PerLayer("exec.morsel_p99_us", Quantile(morsel_us, 0.99), "us");
  r->PerLayer("exec.busy_frac",
              Ratio(morsel_ns, static_cast<double>(t.workers) * batch_ns),
              "fraction");
  r->PerLayer("core.self_us_per_query", us_per(Layer::kCoreQuery, answers),
              "us");
  r->PerLayer("batree.descent_us_per_query",
              us_per(Layer::kBatreeDescent, answers), "us");
  r->PerLayer("batree.insert_us_per_point",
              us_per(Layer::kBatreeInsert, points), "us");
  r->PerLayer("functional.descent_us_per_query",
              us_per(Layer::kFunctionalDescent, answers), "us");
  r->PerLayer("functional.self_us_per_query",
              us_per(Layer::kFunctionalQuery, answers), "us");
  r->PerLayer("pagefile.read_us_p50", Median(read_us), "us");
  r->PerLayer("pagefile.read_us_p99", Quantile(read_us, 0.99), "us");
  r->PerLayer("pagefile.read_share", Ratio(read_ns, a.wall_ns), "fraction");
  r->PerLayer("pagefile.write_us_p50", Median(write_us), "us");
  r->PerLayer("pagefile.write_share", Ratio(write_ns, a.wall_ns), "fraction");
  r->PerLayer("client.self_frac",
              Ratio(a.Self(Layer::kClientOp) + a.Self(Layer::kClientCheck),
                    a.wall_ns),
              "fraction");
  r->PerLayer("trace.overhead_frac",
              1.0 - Ratio(t.traced_ops_per_s, t.untraced_ops_per_s),
              "fraction");
  const double unattributed = 1.0 - Ratio(a.SelfSum(), a.wall_ns);
  r->PerLayer("trace.unattributed_frac", unattributed, "fraction");
  r->PerLayer("trace.spans", static_cast<double>(t.spans.size()), "count");
  if (!(std::fabs(unattributed) <= kTraceSlack)) {
    r->Error("identity: layer self times cover " +
             std::to_string(1.0 - unattributed) +
             " of the traced wall time, outside the stated slack");
  }
  if (!WriteSpans(dump_path, t.spans)) {
    r->Error("cannot write spans to " + dump_path);
  }
}

void MeasureDecode(boxagg::PageFile* file, Report* r) {
  constexpr uint64_t kSample = 256;
  const uint32_t ps = file->page_size();
  const uint64_t pages = file->page_count();
  std::vector<std::vector<uint8_t>> slots;
  std::vector<boxagg::PageId> ids;
  boxagg::Page page(ps);
  for (uint64_t k = 0; k < kSample && pages > 0; ++k) {
    const boxagg::PageId id = k * pages / kSample;
    uint64_t epoch = 0;
    if (!file->ReadPageEx(id, &page, &epoch).ok() || epoch == 0) continue;
    std::vector<uint8_t> slot(boxagg::kPageHeaderSize + ps);
    boxagg::EncodePageSlot(slot.data(), ps, id, epoch, page.data());
    slots.push_back(std::move(slot));
    ids.push_back(id);
  }
  std::vector<double> per_page_us;
  for (int rep = 0; rep < 41 && !slots.empty(); ++rep) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!boxagg::DecodePageSlot(slots[i].data(), ps, ids[i], page.data(),
                                  nullptr)
               .ok()) {
        r->Error("DecodePageSlot rejected a re-encoded page");
        return;
      }
    }
    per_page_us.push_back(NsToUs(NowNs() - t0) /
                          static_cast<double>(slots.size()));
  }
  r->PerLayer("pagefile.decode_us_per_page", Median(per_page_us), "us");
}

void CheckIdentities(const CountSignature& c, Report* r) {
  if (c.obs.TotalNodeVisits() != c.query_io.logical_reads) {
    r->Error("identity: query node visits " +
             std::to_string(c.obs.TotalNodeVisits()) + " != logical reads " +
             std::to_string(c.query_io.logical_reads));
  }
  if (c.io.logical_reads != c.io.buffer_hits + c.io.physical_reads) {
    r->Error("identity: logical reads != buffer hits + physical reads");
  }
}

void CheckDeterminism(const std::vector<CountSignature>& passes, Report* r) {
  for (size_t i = 1; i < passes.size(); ++i) {
    const std::string d = passes[i].Diff(passes[0]);
    if (!d.empty()) {
      r->Error("determinism: count pass " + std::to_string(i) +
               " differs from pass 0 in " + d);
    }
  }
}

}  // namespace perfbench
