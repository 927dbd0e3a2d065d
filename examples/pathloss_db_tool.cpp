// Path-loss database tooling — the data pipeline around the model.
//
// Operators refresh their path-loss matrices periodically (§4.2); this tool
// mirrors that workflow on the synthetic substrate:
//
//   generate:   build the matrices for a market (all sectors, chosen tilt
//               range) and save them in the page-aligned database format,
//   info:       print a database file's inventory from its header +
//               directory alone — no gain bytes are read,
//   verify:     reopen a database through the mmap provider and check it
//               against a freshly built one; every checked matrix also
//               passes its first-touch checksum.
//
// generate fans the per-sector builds and the save's checksums across
// --threads workers; the resulting file is byte-identical for any thread
// count.
//
//   $ pathloss_db_tool --mode generate --db market.mpl [--tilts 2]
//   $ pathloss_db_tool --mode info --db market.mpl
//   $ pathloss_db_tool --mode verify --db market.mpl
#include <cmath>
#include <iostream>
#include <vector>

#include "data/experiment.h"
#include "obs/session.h"
#include "pathloss/database.h"
#include "pathloss/mapped_database.h"
#include "util/args.h"
#include "util/table.h"

namespace {

magus::data::MarketParams tool_params(const magus::util::ArgParser& args) {
  magus::data::MarketParams params;
  params.morphology = magus::data::Morphology::kSuburban;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  params.region_size_m = args.get_double("region-km") * 1000.0;
  params.study_size_m = params.region_size_m / 3.0;
  return params;
}

/// Builds the database for every sector at tilts [-tilts, +tilts],
/// pre-warming the provider across `threads` workers first so the copies
/// below are pure cache reads.
magus::pathloss::PathLossDatabase build_database(
    magus::data::Experiment& experiment, int tilts, std::size_t threads) {
  std::vector<magus::radio::TiltIndex> tilt_set;
  for (int tilt = -tilts; tilt <= tilts; ++tilt) {
    tilt_set.push_back(static_cast<magus::radio::TiltIndex>(tilt));
  }
  experiment.prebuild_footprints(tilt_set, threads);
  magus::pathloss::PathLossDatabase db{experiment.grid()};
  for (const auto& sector : experiment.network().sectors()) {
    for (const magus::radio::TiltIndex tilt : tilt_set) {
      db.insert(sector.id, tilt,
                experiment.provider().footprint(sector.id, tilt));
    }
  }
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace magus;

  util::ArgParser args{"Generate / inspect / verify path-loss databases"};
  args.add_flag("mode", "generate", "generate | info | verify");
  args.add_flag("db", "market.mpl", "database path");
  args.add_flag("seed", "17", "market generation seed");
  args.add_flag("region-km", "9", "analysis region edge in km");
  args.add_flag("tilts", "1", "tilt settings on each side of 0");
  util::add_threads_flag(args);
  util::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  const obs::ObsSession obs_session{args};
  const std::string mode = args.get_string("mode");
  const std::string path = args.get_string("db");
  const int tilts = static_cast<int>(args.get_int("tilts"));
  const std::size_t threads = util::threads_from(args);

  try {
    if (mode == "generate") {
      data::Experiment experiment{tool_params(args)};
      std::cout << "Building matrices for "
                << experiment.network().sector_count() << " sectors x "
                << (2 * tilts + 1) << " tilts...\n";
      const auto db = build_database(experiment, tilts, threads);
      db.save(path, threads);
      std::cout << "Saved " << db.entry_count() << " matrices to " << path
                << '\n';
      return 0;
    }

    if (mode == "info") {
      // Header + directory only: an info over a fleet's worth of files
      // never faults in a gain plane.
      const pathloss::MappedPathLossDatabase db{path};
      std::cout << "Database " << path << ":\n"
                << "  format: v" << pathloss::format::kVersion
                << " (page-aligned), " << db.file_bytes() / 1024
                << " KiB on disk\n"
                << "  grid: " << db.grid().cols() << " x " << db.grid().rows()
                << " cells of " << db.grid().cell_size_m() << " m\n"
                << "  matrices: " << db.entry_count() << '\n';
      if (db.using_mmap()) {
        std::cout << "  gain planes: " << db.mapped_bytes() / 1024
                  << " KiB file-backed (mmap)\n";
      } else {
        std::cout << "  gain planes: read on first touch (no mmap)\n";
      }
      return 0;
    }

    if (mode == "verify") {
      // Each checked matrix is materialized lazily through the mmap
      // provider, so it also passes its first-touch checksum.
      pathloss::MappedPathLossDatabase provider{path};
      data::Experiment experiment{tool_params(args)};
      long checked = 0;
      long mismatches = 0;
      for (const auto& sector : experiment.network().sectors()) {
        if (!provider.contains(sector.id, 0)) continue;
        const auto& stored = provider.footprint(sector.id, 0);
        const auto& fresh = experiment.provider().footprint(sector.id, 0);
        if (stored.covered_count() != fresh.covered_count()) {
          ++mismatches;
          continue;
        }
        bool equal = true;
        fresh.for_each_covered([&](geo::GridIndex g, float gain) {
          if (!stored.covers(g) ||
              std::abs(stored.gain_db(g) - gain) > 1e-4f) {
            equal = false;
          }
        });
        mismatches += equal ? 0 : 1;
        ++checked;
      }
      std::cout << "Verified " << checked << " tilt-0 matrices against a "
                << "fresh build: " << mismatches << " mismatches\n";
      return mismatches == 0 ? 0 : 2;
    }

    std::cerr << "unknown --mode " << mode << '\n';
    return 1;
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
}
