// E1 — Multi-resource extension: Aggregate DRF vs per-site DRF.
//
// The paper situates AMF against DRF (the Mesos/YARN mechanism); this
// extension experiment carries the aggregate-vs-per-site comparison into
// the multi-resource regime: jobs run Leontief tasks (CPU/memory
// profiles), fairness is measured on aggregate dominant shares. The
// independent variable is hot-site concentration: the probability that a
// job is captive to site 0. Expected shape: per-site DRF's balance
// degrades as captivity rises (hot-site jobs pinned to a shrinking slice
// while flexible jobs double-dip); ADRF stays markedly flatter — the
// multi-resource analogue of F1.
#include "common.hpp"

#include "multiresource/drf.hpp"

int main() {
  using namespace amf;
  bench::preamble(
      "E1",
      "aggregate DRF vs per-site DRF: dominant-share balance vs captivity",
      {"12 jobs, 3 sites, 2 resources (CPU/mem), 10 instances per point",
       "captivity: probability a job can only run on the hot site",
       "expected: ADRF jain >> per-site DRF jain as captivity grows"});

  multiresource::AggregateDrfAllocator adrf;
  multiresource::PerSiteDrfAllocator persite;

  util::CsvWriter csv(std::cout,
                      {"captivity", "policy", "jain", "min_max",
                       "min_share", "mean_share"});
  const int instances = 10;
  for (double captivity : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    util::Accumulator jain_a, jain_p, mm_a, mm_p, min_a, min_p, mean_a,
        mean_p;
    for (int i = 0; i < instances; ++i) {
      util::Rng rng(static_cast<std::uint64_t>(
          60000 + i + static_cast<int>(captivity * 100) * 1000));
      const int n = 12, m = 3, rc = 2;
      core::Matrix caps(
          n, std::vector<double>(static_cast<std::size_t>(m), 0.0));
      std::vector<std::vector<double>> profiles(
          n, std::vector<double>(static_cast<std::size_t>(rc), 0.0));
      std::vector<std::vector<double>> capacity(
          m, std::vector<double>(static_cast<std::size_t>(rc), 0.0));
      for (auto& site : capacity)
        for (auto& c : site) c = rng.uniform(20.0, 40.0);
      for (int j = 0; j < n; ++j) {
        profiles[static_cast<std::size_t>(j)] = {rng.uniform(0.3, 2.0),
                                                 rng.uniform(0.3, 2.0)};
        if (rng.bernoulli(captivity)) {
          caps[static_cast<std::size_t>(j)][0] = rng.uniform(10.0, 60.0);
        } else {
          for (int s = 0; s < m; ++s)
            if (s == 0 || rng.bernoulli(0.6))
              caps[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
                  rng.uniform(10.0, 60.0);
        }
      }
      auto problem =
          core::AllocationProblem::multi(caps, capacity, profiles);
      auto shares_a =
          multiresource::dominant_shares(problem, adrf.allocate(problem));
      auto shares_p =
          multiresource::dominant_shares(problem, persite.allocate(problem));
      jain_a.add(util::jain_index(shares_a));
      jain_p.add(util::jain_index(shares_p));
      mm_a.add(util::min_max_ratio(shares_a));
      mm_p.add(util::min_max_ratio(shares_p));
      auto acc = [](const std::vector<double>& v, util::Accumulator& mn,
                    util::Accumulator& mean) {
        double lo = v[0], sum = 0.0;
        for (double x : v) {
          lo = std::min(lo, x);
          sum += x;
        }
        mn.add(lo);
        mean.add(sum / static_cast<double>(v.size()));
      };
      acc(shares_a, min_a, mean_a);
      acc(shares_p, min_p, mean_p);
    }
    csv.row({util::CsvWriter::format(captivity), "ADRF",
             util::CsvWriter::format(jain_a.mean()),
             util::CsvWriter::format(mm_a.mean()),
             util::CsvWriter::format(min_a.mean()),
             util::CsvWriter::format(mean_a.mean())});
    csv.row({util::CsvWriter::format(captivity), "per-site DRF",
             util::CsvWriter::format(jain_p.mean()),
             util::CsvWriter::format(mm_p.mean()),
             util::CsvWriter::format(min_p.mean()),
             util::CsvWriter::format(mean_p.mean())});
  }
  return 0;
}
