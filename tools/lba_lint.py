#!/usr/bin/env python3
"""Concurrency ownership lint for the LBA runtime.

Checks the invariants that clang's Thread Safety Analysis cannot
express (see docs/STATIC_ANALYSIS.md):

  atomic-order   Every std::atomic operation in src/ must name an
                 explicit std::memory_order -- an implicit seq_cst is
                 treated as an unreviewed ordering decision. Operator
                 forms (++x, x += n, x = n) on atomics are rejected for
                 the same reason.
  raw-thread     std::thread may only be constructed/owned inside
                 core::ThreadedExecutor. Everyone else must go through
                 the executor so the worker-role discipline (one assume
                 site, publish/done barriers) cannot be bypassed.
                 std::thread::id and std::thread::hardware_concurrency
                 are metadata, not threads, and stay allowed.
  role-parity    core::PipelineTimer's static annotations and runtime
                 traps must agree: every *public* method annotated
                 LBA_COORDINATOR_ONLY must (transitively) call
                 assertCoordinator(), and every method that calls
                 assertCoordinator() directly must carry the
                 annotation. A passed runtime check is what the
                 ASSERT_CAPABILITY attribute claims statically; this
                 rule keeps the claim honest.

The file list comes from compile_commands.json (configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON -- the root CMakeLists does this by
default), plus every header under src/. Exit status is non-zero when
any finding is reported, so CI can use it as a hard gate.

Usage: tools/lba_lint.py [-p BUILD_DIR] [--repo REPO_ROOT]
"""

import argparse
import json
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Source scrubbing: blank out comments and string/char literals while
# preserving line structure, so regexes cannot match into prose.
# --------------------------------------------------------------------------

_SCRUB_RE = re.compile(
    r"""
      //[^\n]*                      # line comment
    | /\*.*?\*/                     # block comment
    | "(?:\\.|[^"\\\n])*"           # string literal
    | '(?:\\.|[^'\\\n])*'           # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


def scrub(text):
    """Replace comment/literal contents with spaces (newlines kept)."""

    def blank(match):
        return "".join(c if c == "\n" else " " for c in match.group(0))

    return _SCRUB_RE.sub(blank, text)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# File discovery
# --------------------------------------------------------------------------


def source_files(repo, build_dir):
    """src/ translation units from compile_commands.json + src/ headers."""
    compdb = build_dir / "compile_commands.json"
    if not compdb.is_file():
        sys.exit(
            f"lba_lint: {compdb} not found -- configure the build first "
            "(cmake -B build -S .; CMAKE_EXPORT_COMPILE_COMMANDS is on "
            "by default)"
        )
    src_root = (repo / "src").resolve()
    files = set()
    for entry in json.loads(compdb.read_text()):
        path = Path(entry["file"])
        if not path.is_absolute():
            path = Path(entry["directory"]) / path
        path = path.resolve()
        if src_root in path.parents:
            files.add(path)
    if not files:
        sys.exit(f"lba_lint: no src/ entries in {compdb}")
    files.update(p.resolve() for p in src_root.rglob("*.h"))
    return sorted(files)


# --------------------------------------------------------------------------
# Rule: atomic-order
# --------------------------------------------------------------------------

_ATOMIC_DECL_RE = re.compile(r"std\s*::\s*atomic\s*<[^;{]*?>\s*(\w+)")
_ATOMIC_OP_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)


def _call_args(text, open_paren):
    """The argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : i]
    return text[open_paren + 1 :]


def collect_atomic_names(scrubbed_by_file):
    names = set()
    for text in scrubbed_by_file.values():
        for match in _ATOMIC_DECL_RE.finditer(text):
            names.add(match.group(1))
    return names


def check_atomic_order(path, text, atomic_names, findings):
    for match in _ATOMIC_OP_RE.finditer(text):
        receiver, op = match.group(1), match.group(2)
        if receiver not in atomic_names:
            continue
        args = _call_args(text, match.end() - 1)
        if "memory_order" not in args:
            findings.append(
                Finding(
                    path,
                    line_of(text, match.start()),
                    "atomic-order",
                    f"{receiver}.{op}() without an explicit "
                    "std::memory_order (implicit seq_cst)",
                )
            )
    # Operator forms: ++x / x++ / x op= n / x = n on a known atomic.
    for name in atomic_names:
        op_re = re.compile(
            r"(\+\+|--)\s*\b%s\b(?!\s*(?:\.|->|\w))|"
            r"\b%s\s*(\+\+|--|[-+&|^]=|(?<![=!<>])=(?!=))" % (name, name)
        )
        for match in op_re.finditer(text):
            # Skip declarations / member-init lists: 'atomic<T> x{0}' is
            # matched above only for operators, and 'x(0)' init forms
            # contain no operator, so the only false positive left is a
            # same-named non-atomic local -- rename it instead.
            findings.append(
                Finding(
                    path,
                    line_of(text, match.start()),
                    "atomic-order",
                    f"operator access to atomic '{name}' (implicit "
                    "seq_cst) -- use .load/.store/.fetch_* with an "
                    "explicit std::memory_order",
                )
            )


# --------------------------------------------------------------------------
# Rule: raw-thread
# --------------------------------------------------------------------------

_THREAD_RE = re.compile(r"std\s*::\s*thread\b(\s*::\s*\w+)?")
_THREAD_ALLOWED_FILES = ("threaded_executor.h", "threaded_executor.cc")


def check_raw_thread(path, text, findings):
    if path.name in _THREAD_ALLOWED_FILES:
        return
    for match in _THREAD_RE.finditer(text):
        if match.group(1):  # std::thread::id / ::hardware_concurrency
            continue
        findings.append(
            Finding(
                path,
                line_of(text, match.start()),
                "raw-thread",
                "raw std::thread outside core::ThreadedExecutor -- "
                "host threads must go through the executor",
            )
        )


# --------------------------------------------------------------------------
# Rule: role-parity (core::PipelineTimer)
# --------------------------------------------------------------------------


def _matching_brace(text, open_brace):
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _class_body(text, class_name):
    match = re.search(r"\bclass\s+%s\b[^;{]*{" % class_name, text)
    if not match:
        return None, 0
    end = _matching_brace(text, match.end() - 1)
    return text[match.end() : end], match.end()


# A method introducer: name(...), possibly multi-line args, followed by
# qualifiers/annotations and then either ';' (declaration) or '{' (inline
# definition). Good enough for this codebase's clang-format style.
_METHOD_RE = re.compile(r"\b(~?\w+)\s*\(")

_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "static_cast", "const_cast", "reinterpret_cast", "static_assert",
    "defined", "alignof", "decltype",
}


def _parse_class_methods(body, body_offset, text):
    """Yield (name, decl_tail_start, is_public, line) for each method.

    decl_tail_start points just past the closing ')' of the parameter
    list, where qualifiers and annotations live.
    """
    # Section markers.
    sections = [(0, True)]  # class PipelineTimer { public: ... first
    for match in re.finditer(r"\b(public|private|protected)\s*:", body):
        sections.append((match.start(), match.group(1) == "public"))
    sections.sort()

    def is_public(pos):
        state = False  # class default
        for start, public in sections:
            if start <= pos:
                state = public
        return state

    depth = 0
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0 and (ch.isalpha() or ch == "_" or ch == "~"):
            match = _METHOD_RE.match(body, i)
            if match and match.group(1) not in _CONTROL_KEYWORDS:
                close = _matching_paren(body, match.end() - 1)
                yield (
                    match.group(1),
                    close + 1,
                    is_public(i),
                    line_of(text, body_offset + i),
                )
                i = close + 1
                continue
        i += 1


def _matching_paren(text, open_paren):
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def _decl_tail(body, start):
    """Text between a parameter list and the ';' or '{' ending the decl."""
    for i in range(start, len(body)):
        if body[i] in ";{":
            return body[start:i], body[i], i
    return body[start:], ";", len(body)


_CALL_RE = re.compile(r"\b(\w+)\s*\(")


def _body_calls(body_text):
    return {
        m.group(1)
        for m in _CALL_RE.finditer(body_text)
        if m.group(1) not in _CONTROL_KEYWORDS
    }


def check_role_parity(repo, findings):
    header_path = repo / "src" / "core" / "pipeline_timer.h"
    impl_path = repo / "src" / "core" / "pipeline_timer.cc"
    header = scrub(header_path.read_text())
    impl = scrub(impl_path.read_text())

    body, offset = _class_body(header, "PipelineTimer")
    if body is None:
        findings.append(
            Finding(header_path, 1, "role-parity",
                    "class PipelineTimer not found")
        )
        return

    annotated = {}  # name -> (is_public, line)
    inline_bodies = {}  # name -> body text
    method_names = set()
    for name, tail_start, public, line in _parse_class_methods(
        body, offset, header
    ):
        tail, terminator, term_pos = _decl_tail(body, tail_start)
        method_names.add(name)
        if "LBA_COORDINATOR_ONLY" in tail:
            # Both overloads of log()/retire() are annotated; keeping
            # the first line is fine for reporting.
            annotated.setdefault(name, (public, line))
        if terminator == "{":
            end = _matching_brace(body, term_pos)
            inline_bodies.setdefault(name, "")
            inline_bodies[name] += body[term_pos : end + 1]

    # Out-of-line bodies.
    cc_bodies = {}
    for match in re.finditer(r"\bPipelineTimer\s*::\s*(~?\w+)\s*\(", impl):
        name = match.group(1)
        close = _matching_paren(impl, match.end() - 1)
        tail, terminator, term_pos = _decl_tail(impl, close + 1)
        if terminator != "{":
            continue  # a declaration or pointer-to-member mention
        end = _matching_brace(impl, term_pos)
        cc_bodies.setdefault(name, "")
        cc_bodies[name] += impl[term_pos : end + 1]
        method_names.add(name)

    bodies = {}
    for name in method_names:
        bodies[name] = inline_bodies.get(name, "") + cc_bodies.get(name, "")

    calls = {name: _body_calls(text) for name, text in bodies.items()}

    def reaches_assert(name, seen=None):
        if seen is None:
            seen = set()
        if name in seen:
            return False
        seen.add(name)
        direct = calls.get(name, set())
        if "assertCoordinator" in direct:
            return True
        return any(
            callee in method_names and reaches_assert(callee, seen)
            for callee in direct
        )

    # Direction 1: a public LBA_COORDINATOR_ONLY method must prove the
    # role at runtime (transitively -- e.g. via syncConst/flushPending).
    for name, (public, line) in sorted(annotated.items()):
        if not public:
            continue
        if not bodies.get(name):
            findings.append(
                Finding(
                    header_path, line, "role-parity",
                    f"no body found for annotated method '{name}' "
                    "(lint parser out of date?)",
                )
            )
            continue
        if not reaches_assert(name):
            findings.append(
                Finding(
                    header_path, line, "role-parity",
                    f"public method '{name}' is LBA_COORDINATOR_ONLY "
                    "but never reaches assertCoordinator() -- the "
                    "static claim has no runtime twin",
                )
            )

    # Direction 2: a method that asserts the role must also declare it.
    for name, direct in sorted(calls.items()):
        if name in ("assertCoordinator", "PipelineTimer"):
            # The trap itself, and the constructors (which *assume* the
            # role -- they define the coordinator, nothing to require).
            continue
        if "assertCoordinator" in direct and name not in annotated:
            findings.append(
                Finding(
                    header_path, 1, "role-parity",
                    f"method '{name}' calls assertCoordinator() but is "
                    "not annotated LBA_COORDINATOR_ONLY",
                )
            )


# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-p", "--build-dir", default="build",
        help="build directory containing compile_commands.json",
    )
    parser.add_argument(
        "--repo", default=None,
        help="repository root (default: parent of this script's dir)",
    )
    args = parser.parse_args()

    repo = Path(args.repo) if args.repo else Path(__file__).resolve().parents[1]
    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = repo / build_dir

    files = source_files(repo, build_dir)
    scrubbed = {path: scrub(path.read_text()) for path in files}

    findings = []
    atomic_names = collect_atomic_names(scrubbed)
    for path, text in scrubbed.items():
        check_atomic_order(path, text, atomic_names, findings)
        check_raw_thread(path, text, findings)
    check_role_parity(repo, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lba_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lba_lint: OK ({len(files)} files, "
          f"{len(atomic_names)} atomic variables)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
