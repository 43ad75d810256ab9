#pragma once
/**
 * @file
 * Definition of the simulated instruction set (the "LRISC" ISA).
 *
 * The paper's machine is x86 running on Simics; for this reproduction we
 * define a compact 64-bit RISC-style ISA whose instruction classes map 1:1
 * onto the event-record types the LBA capture hardware produces (load,
 * store, branch, indirect jump, call, return, syscall, plain ALU). The
 * precise instruction semantics are irrelevant to the paper's claims; the
 * event mix is what drives lifeguard cost, and the workload generator
 * calibrates that mix per benchmark.
 *
 * Encoding: every instruction is exactly 8 bytes, little-endian:
 *   byte 0      opcode
 *   byte 1      rd   (destination register)
 *   byte 2      rs1  (first source register)
 *   byte 3      rs2  (second source register)
 *   bytes 4..7  imm  (signed 32-bit immediate)
 *
 * Register conventions:
 *   r0        hardwired zero (writes are discarded)
 *   r1..r8    syscall/function arguments and return values, caller-saved
 *   r9..r28   general purpose
 *   r29 (SP)  stack pointer
 *   r30 (LR)  link register (written by CALL/CALLR, read by RET)
 *   r31       assembler temporary
 */

#include <cstddef>
#include <cstdint>

#include "common/assert.h"
#include "common/types.h"

namespace lba::isa {

/** Number of architectural general-purpose registers. */
inline constexpr unsigned kNumRegs = 32;

/** Size in bytes of every encoded instruction. */
inline constexpr unsigned kInstrBytes = 8;

/** Well-known register indices. */
inline constexpr RegIndex kRegZero = 0;
inline constexpr RegIndex kRegSp = 29;
inline constexpr RegIndex kRegLr = 30;
inline constexpr RegIndex kRegAt = 31;

/**
 * Operation codes. The numeric values are part of the binary encoding and
 * must stay stable (tests pin them).
 */
enum class Opcode : std::uint8_t {
    kNop = 0,
    kHalt = 1,

    // Immediate / move
    kLi = 2,    ///< rd = sign_extend(imm)
    kLih = 3,   ///< rd = (rd & 0xffffffff) | (uint64(imm) << 32)
    kMov = 4,   ///< rd = rs1

    // Register-register ALU
    kAdd = 5,
    kSub = 6,
    kMul = 7,
    kDivu = 8,  ///< unsigned divide; division by zero yields all-ones
    kRemu = 9,  ///< unsigned remainder; mod zero yields the dividend
    kAnd = 10,
    kOr = 11,
    kXor = 12,
    kShl = 13,  ///< shift amount taken mod 64
    kShr = 14,  ///< logical right shift, amount mod 64
    kSra = 15,  ///< arithmetic right shift, amount mod 64
    kSlt = 16,  ///< rd = (int64)rs1 < (int64)rs2
    kSltu = 17, ///< rd = rs1 < rs2 (unsigned)

    // Register-immediate ALU
    kAddi = 18,
    kMuli = 19,
    kAndi = 20,
    kOri = 21,
    kXori = 22,
    kShli = 23,
    kShri = 24,

    // Memory: effective address = regs[rs1] + imm
    kLb = 25,   ///< rd = zero_extend(mem8[ea])
    kLw = 26,   ///< rd = zero_extend(mem32[ea])
    kLd = 27,   ///< rd = mem64[ea]
    kSb = 28,   ///< mem8[ea] = rs2 & 0xff
    kSw = 29,   ///< mem32[ea] = rs2 & 0xffffffff
    kSd = 30,   ///< mem64[ea] = rs2

    // Control: branch target = pc + imm (byte offset)
    kBeq = 31,
    kBne = 32,
    kBlt = 33,  ///< signed
    kBge = 34,  ///< signed
    kBltu = 35,
    kBgeu = 36,
    kJmp = 37,  ///< pc += imm
    kJr = 38,   ///< pc = regs[rs1] (indirect jump)
    kCall = 39, ///< LR = pc + 8; pc += imm
    kCallr = 40,///< LR = pc + 8; pc = regs[rs1] (indirect call)
    kRet = 41,  ///< pc = LR

    kSyscall = 42, ///< invoke OS service number imm; args in r1..r4

    kNumOpcodes
};

/**
 * Instruction classes: the event taxonomy that the LBA capture hardware
 * records and that lifeguard dispatch tables key on.
 */
enum class InstrClass : std::uint8_t {
    kNop = 0,
    kHalt,
    kLoadImm,
    kMove,
    kIntAlu,
    kLoad,
    kStore,
    kBranch,
    kJump,
    kIndirectJump,
    kCall,
    kIndirectCall,
    kReturn,
    kSyscall,

    kNumClasses
};

/** Number of distinct instruction classes. */
inline constexpr unsigned kNumInstrClasses =
    static_cast<unsigned>(InstrClass::kNumClasses);

namespace detail {

/** Per-opcode static properties, indexed by opcode value. */
struct OpInfo
{
    const char* mnemonic;
    InstrClass cls;
    bool reads_rs1;
    bool reads_rs2;
    bool writes_rd;
    unsigned mem_bytes; // 0 for non-memory opcodes
};

inline constexpr OpInfo kOpTable[] = {
    // mnemonic   class                      rs1    rs2    rd     bytes
    {"nop",     InstrClass::kNop,          false, false, false, 0},
    {"halt",    InstrClass::kHalt,         false, false, false, 0},
    {"li",      InstrClass::kLoadImm,      false, false, true,  0},
    {"lih",     InstrClass::kLoadImm,      false, false, true,  0},
    {"mov",     InstrClass::kMove,         true,  false, true,  0},
    {"add",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"sub",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"mul",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"divu",    InstrClass::kIntAlu,       true,  true,  true,  0},
    {"remu",    InstrClass::kIntAlu,       true,  true,  true,  0},
    {"and",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"or",      InstrClass::kIntAlu,       true,  true,  true,  0},
    {"xor",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"shl",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"shr",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"sra",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"slt",     InstrClass::kIntAlu,       true,  true,  true,  0},
    {"sltu",    InstrClass::kIntAlu,       true,  true,  true,  0},
    {"addi",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"muli",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"andi",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"ori",     InstrClass::kIntAlu,       true,  false, true,  0},
    {"xori",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"shli",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"shri",    InstrClass::kIntAlu,       true,  false, true,  0},
    {"lb",      InstrClass::kLoad,         true,  false, true,  1},
    {"lw",      InstrClass::kLoad,         true,  false, true,  4},
    {"ld",      InstrClass::kLoad,         true,  false, true,  8},
    {"sb",      InstrClass::kStore,        true,  true,  false, 1},
    {"sw",      InstrClass::kStore,        true,  true,  false, 4},
    {"sd",      InstrClass::kStore,        true,  true,  false, 8},
    {"beq",     InstrClass::kBranch,       true,  true,  false, 0},
    {"bne",     InstrClass::kBranch,       true,  true,  false, 0},
    {"blt",     InstrClass::kBranch,       true,  true,  false, 0},
    {"bge",     InstrClass::kBranch,       true,  true,  false, 0},
    {"bltu",    InstrClass::kBranch,       true,  true,  false, 0},
    {"bgeu",    InstrClass::kBranch,       true,  true,  false, 0},
    {"jmp",     InstrClass::kJump,         false, false, false, 0},
    {"jr",      InstrClass::kIndirectJump, true,  false, false, 0},
    {"call",    InstrClass::kCall,         false, false, false, 0},
    {"callr",   InstrClass::kIndirectCall, true,  false, false, 0},
    {"ret",     InstrClass::kReturn,       false, false, false, 0},
    {"syscall", InstrClass::kSyscall,      false, false, false, 0},
};

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
                  static_cast<std::size_t>(Opcode::kNumOpcodes),
              "opcode table must cover every opcode");

/** The properties of @p op; an invalid opcode is a library bug. */
inline const OpInfo&
info(Opcode op)
{
    auto idx = static_cast<std::size_t>(op);
    LBA_ASSERT(idx < static_cast<std::size_t>(Opcode::kNumOpcodes),
               "invalid opcode");
    return kOpTable[idx];
}

} // namespace detail

// The properties below are table lookups that every retirement, sized
// record and decoded record makes, so they are inline.

/** Classify an opcode. */
inline InstrClass
classOf(Opcode op)
{
    return detail::info(op).cls;
}

/** True if @p op reads memory. */
inline bool
isLoad(Opcode op)
{
    return classOf(op) == InstrClass::kLoad;
}

/** True if @p op writes memory. */
inline bool
isStore(Opcode op)
{
    return classOf(op) == InstrClass::kStore;
}

/** True if @p op reads or writes memory. */
inline bool isMemRef(Opcode op) { return isLoad(op) || isStore(op); }

/** True for any control transfer (branch, jump, call, return). */
inline bool
isControl(Opcode op)
{
    switch (classOf(op)) {
      case InstrClass::kBranch:
      case InstrClass::kJump:
      case InstrClass::kIndirectJump:
      case InstrClass::kCall:
      case InstrClass::kIndirectCall:
      case InstrClass::kReturn:
        return true;
      default:
        return false;
    }
}

/** True if the instruction architecturally reads rs1. */
inline bool
readsRs1(Opcode op)
{
    return detail::info(op).reads_rs1;
}

/** True if the instruction architecturally reads rs2. */
inline bool
readsRs2(Opcode op)
{
    return detail::info(op).reads_rs2;
}

/** True if the instruction architecturally writes rd. */
inline bool
writesRd(Opcode op)
{
    return detail::info(op).writes_rd;
}

/** Access size in bytes for memory opcodes (0 for non-memory). */
inline unsigned
memAccessBytes(Opcode op)
{
    return detail::info(op).mem_bytes;
}

/** Canonical lower-case mnemonic ("add", "ld", ...). */
const char* mnemonic(Opcode op);

/** Printable name of an instruction class ("Load", "IndirectJump", ...). */
const char* className(InstrClass cls);

/**
 * A decoded instruction. This is the unit the functional core executes and
 * the unit the capture hardware sees retire.
 */
struct Instruction
{
    Opcode op = Opcode::kNop;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    std::int32_t imm = 0;

    bool operator==(const Instruction&) const = default;
};

} // namespace lba::isa
