/**
 * @file
 * Opcode and class names for the LRISC ISA (the opcode property table
 * is inline in isa/isa.h).
 */

#include "isa/isa.h"

#include "common/assert.h"

namespace lba::isa {

namespace {

constexpr const char* kClassNames[] = {
    "Nop", "Halt", "LoadImm", "Move", "IntAlu", "Load", "Store",
    "Branch", "Jump", "IndirectJump", "Call", "IndirectCall", "Return",
    "Syscall",
};

static_assert(sizeof(kClassNames) / sizeof(kClassNames[0]) ==
                  kNumInstrClasses,
              "class name table must cover every class");

} // namespace

const char*
mnemonic(Opcode op)
{
    return detail::info(op).mnemonic;
}

const char*
className(InstrClass cls)
{
    auto idx = static_cast<std::size_t>(cls);
    LBA_ASSERT(idx < kNumInstrClasses, "invalid instruction class");
    return kClassNames[idx];
}

} // namespace lba::isa
