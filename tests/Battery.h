//===- tests/Battery.h - Program battery for differential tests -*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs the linear-time front end (indexed STEAL_init
/// construction, the union-find loop forest) is compared on against its
/// all-pairs references, and the audit's sweep count is pinned on:
/// every genConfigForBucket family at a given size, and every
/// tests/corpus and examples/fm program. Test targets that include this
/// header define GNT_CORPUS_DIR and GNT_EXAMPLES_DIR.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_TESTS_BATTERY_H
#define GNT_TESTS_BATTERY_H

#include "frontend/Parser.h"
#include "gen/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gnt::test {

struct BatteryProgram {
  std::string Name;
  Program Prog;
};

/// Every genConfigForBucket family at \p Stmts statements, seeds
/// 1..\p Seeds.
inline std::vector<BatteryProgram> generatedBattery(unsigned Stmts,
                                                    unsigned Seeds) {
  std::vector<BatteryProgram> R;
  for (unsigned B = 0; B != NumGenBuckets; ++B)
    for (unsigned Seed = 1; Seed <= Seeds; ++Seed) {
      GenConfig C = genConfigForBucket(B, Seed);
      C.TargetStmts = Stmts;
      R.push_back({"b" + std::to_string(B) + ".s" + std::to_string(Stmts) +
                       ".seed" + std::to_string(Seed),
                   generateRandomProgram(C)});
    }
  return R;
}

/// Every tests/corpus and examples/fm program, in name order.
inline std::vector<BatteryProgram> fileBattery() {
  std::vector<std::filesystem::path> Paths;
  for (const char *Dir : {GNT_CORPUS_DIR, GNT_EXAMPLES_DIR})
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      if (E.path().extension() == ".fm")
        Paths.push_back(E.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<BatteryProgram> R;
  for (const std::filesystem::path &P : Paths) {
    std::ifstream In(P);
    std::ostringstream SS;
    SS << In.rdbuf();
    ParseResult PR = parseProgram(SS.str());
    EXPECT_TRUE(PR.success()) << P;
    if (PR.success())
      R.push_back({P.filename().string(), std::move(PR.Prog)});
  }
  EXPECT_FALSE(R.empty());
  return R;
}

} // namespace gnt::test

#endif // GNT_TESTS_BATTERY_H
