// Two synthetic campaign drivers for exact-counter tests of the campaign
// mechanisms (state merging, the cross-pass shared solver cache):
//
//   fault_farm:  12 independent allocation fault sites in init, each of whose
//                failure paths spins 300k iterations before failing init, so
//                every fault plan costs real engine time;
//   solver_farm: six rounds of a symbolic quadratic-preimage branch (a
//                diamond per round) before six allocation fault sites, so
//                every fault plan re-asks the identical canonical queries.
#ifndef TESTS_FARM_DRIVERS_H_
#define TESTS_FARM_DRIVERS_H_

#include <gtest/gtest.h>

#include <string>

#include "src/hw/pci.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"
#include "src/vm/image.h"

namespace ddt {

// A minimal PCI function with one 256-byte BAR, for any synthetic driver.
inline PciDescriptor FarmPci() {
  PciDescriptor pci;
  pci.vendor_id = 1;
  pci.device_id = 1;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

inline DriverImage AssembleFarm(const std::string& source) {
  Result<AssembledDriver> assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.error();
  return assembled.value().image;
}

// The happy path allocates and returns quickly, keeping the baseline pass
// cheap. Its error-path spins are ended by the loop checker's 100k-step
// heuristic at ~50k iterations, below the back-edge kill threshold, so the
// path-explosion controls have nothing to act on here.
inline DriverImage FaultFarmImage() {
  std::string allocs;
  for (int i = 0; i < 12; ++i) {
    allocs +=
        "    movi r0, 64\n"
        "    kcall MosAllocatePool\n"
        "    bz r0, fail\n";
  }
  return AssembleFarm(R"(
  .driver "fault_farm"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
)" + allocs + R"(
    movi r0, 0
    ret
  fail:
    movi r1, 300000
  spin:
    subi r1, r1, 1
    bnz r1, spin
    movi r0, 1
    ret
  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)");
}

// Each round branches on (C_i * x_i^2) & 0xFFFFF == D_i for a fresh device
// read x_i: 32-bit multiplies under a 20-bit mask, which the SAT core has to
// genuinely search. The rounds use distinct constants, so they are distinct
// canonical queries; but each round touches only its own variable, so
// constraint slicing gives every pass and every path the same canonical
// query per round. The six diamonds reconverge at round<i>_hit, so merging
// collapses their 2^6 leaves.
inline DriverImage SolverFarmImage() {
  static const unsigned kMults[6] = {77, 131, 197, 241, 311, 389};
  static const unsigned kTargets[6] = {0x1234, 0x35A7, 0x77E1, 0x2B6D, 0x5C3F, 0x6E15};
  std::string rounds;
  for (int i = 0; i < 6; ++i) {
    rounds += StrFormat(
        "    ld32 r1, [r5+%d]\n"
        "    andi r1, r1, 0xFFFFF\n"
        "    muli r2, r1, %u\n"
        "    mul r2, r2, r1\n"
        "    andi r3, r2, 0xFFFFF\n"
        "    subi r3, r3, %u\n"
        "    bz r3, round%d_hit\n"
        "    addi r6, r6, 1\n"
        "  round%d_hit:\n",
        i * 4, kMults[i], kTargets[i], i, i);
  }
  std::string allocs;
  for (int i = 0; i < 6; ++i) {
    allocs +=
        "    movi r0, 64\n"
        "    kcall MosAllocatePool\n"
        "    bz r0, alloc_failed\n";
  }
  return AssembleFarm(R"(
  .driver "solver_farm"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    movi r6, 0
    movi r0, 0
    kcall MosMapIoSpace
    bz r0, map_failed
    addi r5, r0, 0
)" + rounds + allocs + R"(
    movi r0, 0
    ret
  map_failed:
    movi r0, 0xC000009A
    ret
  alloc_failed:
    movi r0, 0xC0000017
    ret
  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)");
}

}  // namespace ddt

#endif  // TESTS_FARM_DRIVERS_H_
