/**
 * @file
 * Two-pass text assembler implementation.
 */

#include "asm/assembler.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

namespace lba::assembler {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Strip comments and surrounding whitespace from a source line. */
std::string
cleanLine(const std::string& line)
{
    std::string out = line;
    std::size_t cut = out.find_first_of(";#");
    if (cut != std::string::npos) out.erase(cut);
    std::size_t begin = out.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    std::size_t end = out.find_last_not_of(" \t\r");
    return out.substr(begin, end - begin + 1);
}

/** Split an operand string on commas, trimming each piece. */
std::vector<std::string>
splitOperands(const std::string& text)
{
    std::vector<std::string> parts;
    std::string current;
    for (char ch : text) {
        if (ch == ',') {
            parts.push_back(current);
            current.clear();
        } else {
            current += ch;
        }
    }
    parts.push_back(current);
    for (std::string& part : parts) {
        std::size_t begin = part.find_first_not_of(" \t");
        if (begin == std::string::npos) {
            part.clear();
            continue;
        }
        std::size_t end = part.find_last_not_of(" \t");
        part = part.substr(begin, end - begin + 1);
    }
    return parts;
}

/** Parse a register operand ("r7", "sp", "lr", "at"). */
std::optional<RegIndex>
parseReg(const std::string& text)
{
    if (text == "sp") return isa::kRegSp;
    if (text == "lr") return isa::kRegLr;
    if (text == "at") return isa::kRegAt;
    if (text.size() < 2 || (text[0] != 'r' && text[0] != 'R')) {
        return std::nullopt;
    }
    char* end = nullptr;
    long value = std::strtol(text.c_str() + 1, &end, 10);
    if (*end != '\0' || value < 0 ||
        value >= static_cast<long>(isa::kNumRegs)) {
        return std::nullopt;
    }
    return static_cast<RegIndex>(value);
}

/** Parse a signed immediate (decimal or 0x-hex). */
std::optional<std::int64_t>
parseImm(const std::string& text)
{
    if (text.empty()) return std::nullopt;
    char* end = nullptr;
    long long value = std::strtoll(text.c_str(), &end, 0);
    if (*end != '\0') return std::nullopt;
    return value;
}

/** Parse "offset(base)" memory operand syntax. */
std::optional<std::pair<std::int32_t, RegIndex>>
parseMemOperand(const std::string& text)
{
    std::size_t open = text.find('(');
    std::size_t close = text.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open || close != text.size() - 1) {
        return std::nullopt;
    }
    // "(base)" has offset 0.
    std::optional<std::int64_t> off =
        open == 0 ? 0 : parseImm(text.substr(0, open));
    auto base = parseReg(text.substr(open + 1, close - open - 1));
    if (!off || !base) return std::nullopt;
    if (*off < INT32_MIN || *off > INT32_MAX) return std::nullopt;
    return std::make_pair(static_cast<std::int32_t>(*off), *base);
}

/** Lookup table from mnemonic to opcode. */
const std::map<std::string, Opcode>&
mnemonicTable()
{
    static const std::map<std::string, Opcode> table = [] {
        std::map<std::string, Opcode> t;
        for (unsigned i = 0;
             i < static_cast<unsigned>(Opcode::kNumOpcodes); ++i) {
            auto op = static_cast<Opcode>(i);
            t[isa::mnemonic(op)] = op;
        }
        return t;
    }();
    return table;
}

/** A parsed source line awaiting label resolution. */
struct PendingInstr
{
    Instruction instr;
    std::string label_operand; // non-empty when imm awaits a label
    int line = 0;
};

} // namespace

AssembleResult
assemble(const std::string& source)
{
    AssembleResult result;
    std::map<std::string, std::size_t> labels;
    std::vector<PendingInstr> pending;

    auto fail = [&](int line, const std::string& message) {
        result.program.clear();
        result.error = message;
        result.error_line = line;
        return result;
    };

    std::istringstream stream(source);
    std::string raw_line;
    int line_no = 0;
    while (std::getline(stream, raw_line)) {
        ++line_no;
        std::string line = cleanLine(raw_line);
        if (line.empty()) continue;

        // Labels (possibly followed by an instruction on the same line).
        while (true) {
            std::size_t colon = line.find(':');
            std::size_t space = line.find_first_of(" \t");
            if (colon == std::string::npos ||
                (space != std::string::npos && space < colon)) {
                break;
            }
            std::string name = line.substr(0, colon);
            if (name.empty()) return fail(line_no, "empty label name");
            if (labels.count(name)) {
                return fail(line_no, "duplicate label '" + name + "'");
            }
            labels[name] = pending.size();
            line = cleanLine(line.substr(colon + 1));
            if (line.empty()) break;
        }
        if (line.empty()) continue;

        // Mnemonic and operands.
        std::size_t space = line.find_first_of(" \t");
        std::string mn = line.substr(0, space);
        std::string rest =
            space == std::string::npos ? "" : line.substr(space + 1);
        auto it = mnemonicTable().find(mn);
        if (it == mnemonicTable().end()) {
            return fail(line_no, "unknown mnemonic '" + mn + "'");
        }
        Opcode op = it->second;
        std::vector<std::string> ops =
            rest.empty() ? std::vector<std::string>{} : splitOperands(rest);

        PendingInstr p;
        p.instr.op = op;
        p.line = line_no;

        auto want = [&](std::size_t n) { return ops.size() == n; };
        auto bad_operands = [&]() {
            return fail(line_no,
                        std::string("bad operands for '") + mn + "'");
        };

        switch (isa::classOf(op)) {
          case isa::InstrClass::kNop:
          case isa::InstrClass::kHalt:
          case isa::InstrClass::kReturn:
            if (!want(0)) return bad_operands();
            break;

          case isa::InstrClass::kLoadImm: {
            if (!want(2)) return bad_operands();
            auto rd = parseReg(ops[0]);
            auto imm = parseImm(ops[1]);
            if (!rd || !imm || *imm < INT32_MIN || *imm > INT32_MAX) {
                return bad_operands();
            }
            p.instr.rd = *rd;
            p.instr.imm = static_cast<std::int32_t>(*imm);
            break;
          }

          case isa::InstrClass::kMove: {
            if (!want(2)) return bad_operands();
            auto rd = parseReg(ops[0]);
            auto rs1 = parseReg(ops[1]);
            if (!rd || !rs1) return bad_operands();
            p.instr.rd = *rd;
            p.instr.rs1 = *rs1;
            break;
          }

          case isa::InstrClass::kIntAlu: {
            if (!want(3)) return bad_operands();
            auto rd = parseReg(ops[0]);
            auto rs1 = parseReg(ops[1]);
            if (!rd || !rs1) return bad_operands();
            p.instr.rd = *rd;
            p.instr.rs1 = *rs1;
            if (isa::readsRs2(op)) {
                auto rs2 = parseReg(ops[2]);
                if (!rs2) return bad_operands();
                p.instr.rs2 = *rs2;
            } else {
                auto imm = parseImm(ops[2]);
                if (!imm || *imm < INT32_MIN || *imm > INT32_MAX) {
                    return bad_operands();
                }
                p.instr.imm = static_cast<std::int32_t>(*imm);
            }
            break;
          }

          case isa::InstrClass::kLoad: {
            if (!want(2)) return bad_operands();
            auto rd = parseReg(ops[0]);
            auto mem = parseMemOperand(ops[1]);
            if (!rd || !mem) return bad_operands();
            p.instr.rd = *rd;
            p.instr.imm = mem->first;
            p.instr.rs1 = mem->second;
            break;
          }

          case isa::InstrClass::kStore: {
            if (!want(2)) return bad_operands();
            auto val = parseReg(ops[0]);
            auto mem = parseMemOperand(ops[1]);
            if (!val || !mem) return bad_operands();
            p.instr.rs2 = *val;
            p.instr.imm = mem->first;
            p.instr.rs1 = mem->second;
            break;
          }

          case isa::InstrClass::kBranch: {
            if (!want(3)) return bad_operands();
            auto rs1 = parseReg(ops[0]);
            auto rs2 = parseReg(ops[1]);
            if (!rs1 || !rs2) return bad_operands();
            p.instr.rs1 = *rs1;
            p.instr.rs2 = *rs2;
            if (auto imm = parseImm(ops[2]);
                imm && *imm >= INT32_MIN && *imm <= INT32_MAX) {
                p.instr.imm = static_cast<std::int32_t>(*imm);
            } else {
                p.label_operand = ops[2];
            }
            break;
          }

          case isa::InstrClass::kJump:
          case isa::InstrClass::kCall: {
            if (!want(1)) return bad_operands();
            if (auto imm = parseImm(ops[0]);
                imm && *imm >= INT32_MIN && *imm <= INT32_MAX) {
                p.instr.imm = static_cast<std::int32_t>(*imm);
            } else {
                p.label_operand = ops[0];
            }
            break;
          }

          case isa::InstrClass::kIndirectJump:
          case isa::InstrClass::kIndirectCall: {
            if (!want(1)) return bad_operands();
            auto rs1 = parseReg(ops[0]);
            if (!rs1) return bad_operands();
            p.instr.rs1 = *rs1;
            break;
          }

          case isa::InstrClass::kSyscall: {
            if (!want(1)) return bad_operands();
            auto imm = parseImm(ops[0]);
            if (!imm || *imm < 0 || *imm > INT32_MAX) {
                return bad_operands();
            }
            p.instr.imm = static_cast<std::int32_t>(*imm);
            break;
          }

          default:
            return fail(line_no, "unhandled instruction class");
        }

        pending.push_back(std::move(p));
    }

    // Pass 2: resolve label operands to pc-relative byte offsets.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        PendingInstr& p = pending[i];
        if (!p.label_operand.empty()) {
            auto it = labels.find(p.label_operand);
            if (it == labels.end()) {
                return fail(p.line,
                            "unknown label '" + p.label_operand + "'");
            }
            std::int64_t delta =
                (static_cast<std::int64_t>(it->second) -
                 static_cast<std::int64_t>(i)) *
                isa::kInstrBytes;
            if (delta < INT32_MIN || delta > INT32_MAX) {
                return fail(p.line, "branch offset exceeds 32-bit range");
            }
            p.instr.imm = static_cast<std::int32_t>(delta);
        }
        result.program.push_back(p.instr);
    }
    return result;
}

} // namespace lba::assembler
