// The load template of one driver image.
//
// Everything the engine derives from the image bytes alone — the loaded
// layout, the resolved import table, the recovered CFG with a dense
// block-leader index, and a guest-memory root with the code and data
// installed — is computed once by PrepareImage and then shared, read-only,
// by every engine run over that image. Engine::LoadDriver(prepared, pci)
// instantiates a run from it: the initial state's memory is a new
// copy-on-write handle over the template's root (GuestMemory::Share), so a
// run never re-installs, re-decodes, or re-analyzes the image. This is the
// fork-server idea applied to DDT's load path; the concrete fuzz executor
// (src/fuzz/executor.h) prepares each driver once and instantiates per exec.
//
// A PreparedImage is immutable once built and safe to share across threads:
// every engine reads it through const access only.
#ifndef SRC_ENGINE_PREPARED_IMAGE_H_
#define SRC_ENGINE_PREPARED_IMAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/kernel_api.h"
#include "src/support/status.h"
#include "src/vm/disasm.h"
#include "src/vm/guest_memory.h"
#include "src/vm/image.h"

namespace ddt {

struct PreparedImage {
  // Non-OK when the image cannot load: an import no kernel API resolves, or
  // an image larger than the image window. Only `image` is meaningful then.
  // Engine::LoadDriver reports it after its own config checks, so the error
  // precedence does not depend on when the image was prepared.
  Status status;
  DriverImage image;
  LoadedDriver loaded;
  std::vector<KernelApiFn> import_table;  // handler per import, in image order
  Cfg cfg;
  // Root holding the installed code and data; handed out through Share().
  GuestMemory memory;

  // Aligned instruction slots of the code segment (slot i = the instruction
  // at code_begin + i * kInstructionSize); coverage bitmaps have this size.
  size_t num_slots() const { return image.code.size() / kInstructionSize; }
  // True when slot `slot` starts a basic block.
  bool IsLeaderSlot(size_t slot) const {
    return slot < num_slots() &&
           slot_leaders[slot] == loaded.code_begin + static_cast<uint32_t>(slot) * kInstructionSize;
  }
  // Exactly cfg.BlockLeaderFor(addr) for every address, as an array index.
  uint32_t BlockLeaderFor(uint32_t addr) const;

  // cfg.BlockLeaderFor of each aligned slot address, covering the trailing
  // partial slot too. With every leader aligned, blocks begin and end on slot
  // boundaries, so the leader of any address is its slot's entry.
  std::vector<uint32_t> slot_leaders;
  // False for hostile images with a misaligned leader (a branch into the
  // middle of an instruction); BlockLeaderFor then asks the CFG.
  bool leaders_aligned = true;
};

// Builds the load template for `image` placed at kDriverImageBase. Never
// null; a failed load is recorded in the result's status.
std::shared_ptr<const PreparedImage> PrepareImage(const DriverImage& image);

}  // namespace ddt

#endif  // SRC_ENGINE_PREPARED_IMAGE_H_
