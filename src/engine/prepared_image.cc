#include "src/engine/prepared_image.h"

#include "src/vm/layout.h"

namespace ddt {

uint32_t PreparedImage::BlockLeaderFor(uint32_t addr) const {
  if (!leaders_aligned) {
    return cfg.BlockLeaderFor(addr);
  }
  // Below code_begin the offset wraps past every slot.
  size_t slot = (addr - loaded.code_begin) / kInstructionSize;
  return slot < slot_leaders.size() ? slot_leaders[slot] : 0;
}

std::shared_ptr<const PreparedImage> PrepareImage(const DriverImage& image) {
  auto prepared = std::make_shared<PreparedImage>();
  prepared->image = image;

  // Resolve imports up front: an unresolvable import is a load failure, like
  // an unlinkable SYS file.
  for (const std::string& name : image.imports) {
    KernelApiFn fn = FindKernelApi(name);
    if (fn == nullptr) {
      prepared->status = Status::Error("unresolved driver import: " + name);
      return prepared;
    }
    prepared->import_table.push_back(fn);
  }

  prepared->loaded = InstallImage(&prepared->memory, image, kDriverImageBase);
  if (prepared->loaded.code_end > kDriverImageLimit) {
    prepared->status = Status::Error("driver image too large for the image window");
    return prepared;
  }
  const uint32_t base = prepared->loaded.code_begin;
  prepared->cfg = BuildCfg(image.code.data(), image.code.size(), base);

  for (const auto& [leader, block] : prepared->cfg.blocks) {
    if ((leader - base) % kInstructionSize != 0) {
      prepared->leaders_aligned = false;
    }
  }
  size_t slots = (image.code.size() + kInstructionSize - 1) / kInstructionSize;
  prepared->slot_leaders.resize(slots);
  for (size_t i = 0; i < slots; ++i) {
    prepared->slot_leaders[i] =
        prepared->cfg.BlockLeaderFor(base + static_cast<uint32_t>(i) * kInstructionSize);
  }
  return prepared;
}

}  // namespace ddt
