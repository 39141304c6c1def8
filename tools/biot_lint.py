#!/usr/bin/env python3
"""biot-lint: project-specific correctness rules clang-tidy cannot express.

Rules (each can be suppressed on a line with `// biot-lint: allow(<rule>)`,
optionally followed by a rationale — suppressions without one are rejected):

  enum-switch      Every `switch` whose cases name a guarded enum
                   (ErrorCode, Ingress, AdmissionStage, Behaviour, TxType)
                   must list every enumerator and must not contain a
                   `default:` label. A default arm is how a newly added
                   ingress class or error code silently falls into
                   somebody else's handling instead of failing to compile.

  brute-force-twin Every `*_brute_force` reference implementation declared
                   in a src/ header must sit next to its incremental twin
                   (same header, same name minus the suffix) and must be
                   exercised somewhere under tests/ — a reference path
                   nobody cross-checks against is dead weight that rots.

  checked-at       No unchecked `.at(` on the consensus / tip-selection
                   hot paths (src/consensus/*.cpp, src/tangle/
                   tip_selection.cpp). These paths walk ids received from
                   peers; an `.at()` that can throw on an unknown id is a
                   remote crash. Lookups there must go through find() /
                   contains() or carry an allow() with the invariant that
                   guarantees presence.

  include-hygiene  src/ headers start with `#pragma once`; no include path
                   contains `../`; the first project include of every
                   src/ .cpp is its own header (proves the header is
                   self-contained).

  pow-midstate     No call to the single-shot `pow_output(...)` inside
                   src/consensus/ — the miners grind through
                   tangle::PowMidstate, which caches the parents' SHA-256
                   block and compresses only the nonce block per attempt.
                   A pow_output call in a mining loop silently doubles the
                   hash work (it recompresses the constant prefix every
                   nonce). Validation outside src/consensus/ may still use
                   pow_output as the reference form.

  tangle-add       No direct `Tangle::add` / `Tangle::attach_batch` call in
                   src/ outside the admission pipeline
                   (src/node/admission.cpp), the tangle layer itself
                   (src/tangle/), or the persistence replay path
                   (src/storage/tangle_io.cpp). Every other ingress must go
                   through Gateway::admit()/admit_many() so the staged
                   checks (PoW, signature, credit, rate limits) cannot be
                   skipped. A deliberate bypass carries an allow() naming
                   why the staged checks are unnecessary there.

  drain-batch      Outbox/reconnect drain paths in src/node/ must admit
                   through Gateway::admit_many() — no per-item `admit(`
                   call inside a function whose name contains "drain".
                   Batched admission is what lets an intra-chunk parent
                   chain resolve (earlier chunk members attach before
                   later ones verify) and bounds a flash-crowd reconnect
                   to one staged pass per chunk; a per-item loop orphans
                   the chained children and re-runs the staged checks per
                   record. A deliberate single admission (e.g. a control-
                   plane probe) carries an allow() naming why it is not a
                   queue drain.

  raw-sync         No raw std::mutex / std::condition_variable /
                   std::lock_guard / std::unique_lock (or their shared /
                   recursive / scoped cousins) anywhere in src/ — all
                   synchronization goes through the capability-annotated
                   wrappers in src/common/sync.h, so Clang's Thread Safety
                   Analysis and the lock-rank checker see every acquisition.
                   src/common/sync.{h,cpp} themselves carry the justified
                   `// biot-lint: allow(raw-sync)` carve-outs (they ARE the
                   wrapper layer); any other use needs its own rationale.
                   The same rule flags std::thread / std::jthread objects:
                   src/common/executor.h owns the one thread pool (and its
                   allow()), so fan-out work goes through Executor /
                   TaskGroup. Static members such as
                   std::thread::hardware_concurrency name no thread and
                   are not flagged.

  guarded-field    Heuristic: a class owning a sync::Mutex/SharedMutex must
                   annotate each non-atomic, non-const mutable data member
                   with GUARDED_BY/PT_GUARDED_BY — or carry an allow() with
                   the rationale that makes lock-free access safe (e.g.
                   written only in the constructor). The Clang analysis only
                   protects fields that are annotated; an unannotated field
                   next to a mutex is exactly where a silent race hides.

  bench-harness    Every bench/*.cpp must be built on bench/harness.h (so
                   it emits a schema-valid biot-bench-v1 trajectory) and
                   must not hand-roll timing with `std::chrono` /
                   `#include <chrono>` — measurement goes through
                   Harness::bench()/measure() or obs::WallTimer, which the
                   trajectory and the perf-smoke CI diff can see. Matches
                   the qualified forms only: bare "chrono" would false-
                   positive on words like "synchronous" in comments.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

# Enums whose switches must be exhaustive. Maps enum name -> header that
# defines it (relative to the scan root). The enumerator list is parsed
# from the header, so adding an enumerator automatically tightens the lint.
GUARDED_ENUMS = {
    "ErrorCode": "src/common/status.h",
    "Ingress": "src/node/admission.h",
    "AdmissionStage": "src/node/admission.h",
    "Behaviour": "src/consensus/credit.h",
    "TxType": "src/tangle/transaction.h",
}

# Hot paths where a throwing map lookup on a peer-supplied id is a crash.
CHECKED_AT_PATHS = [
    re.compile(r"^src/consensus/[^/]+\.cpp$"),
    re.compile(r"^src/tangle/tip_selection\.cpp$"),
]

# Paths where the single-shot pow_output would re-hash the constant parent
# prefix on every nonce — mining code must grind through tangle::PowMidstate.
POW_MIDSTATE_PATHS = [
    re.compile(r"^src/consensus/[^/]+\.(?:h|cpp)$"),
]

# Paths that legitimately attach to the tangle directly: the admission
# pipeline's final stage, the tangle layer itself (AttachBatch, tests of
# invariants), and replay of locally persisted, already-admitted records.
TANGLE_ADD_ALLOWED_PATHS = [
    re.compile(r"^src/node/admission\.cpp$"),
    re.compile(r"^src/tangle/"),
    re.compile(r"^src/storage/tangle_io\.cpp$"),
]

# A receiver whose name starts with tangle/Tangle (member, local, accessor
# call) invoking add()/attach_batch(). AttachBatch::add via `batch->add`
# deliberately does not match: batches are only mintable from a Tangle&.
TANGLE_ADD_RE = re.compile(
    r"\b[Tt]angle\w*(?:\s*\(\s*\))?\s*(?:\.|->)\s*(?:add|attach_batch)\s*\(")

ALLOW_RE = re.compile(r"//\s*biot-lint:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")

# An identifier containing "drain" followed by an argument list — matched at
# every call/definition site; check_drain_batch keeps only definitions (the
# token run between the closing paren and `{` is qualifiers-only, so call
# expressions inside conditions never open a scanned scope).
DRAIN_FN_RE = re.compile(r"\b\w*[Dd]rain\w*\s*\(")

# A bare per-item admit() call. admit_many / admit_batch_items do not match
# (no word boundary before their suffix); try_admit-style wrappers would
# need the boundary before "admit" and so stay out of scope.
ADMIT_ONE_RE = re.compile(r"\badmit\s*\(")

# Raw standard-library synchronization vocabulary. Everything here has an
# annotated wrapper in src/common/sync.h; a qualified use anywhere else in
# src/ escapes both the Thread Safety Analysis and the lock-rank checker.
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:(?:recursive_|timed_|recursive_timed_|shared_)?mutex"
    r"|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# Raw thread objects. The trailing `::` exclusion keeps static members
# (std::thread::hardware_concurrency, std::thread::id) out of scope.
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")

# A class member that is one of our annotated mutexes — the trigger for the
# guarded-field heuristic. Uppercase M keeps std::shared_mutex (raw-sync's
# business) out of scope.
MUTEX_MEMBER_RE = re.compile(
    r"\b(?:sync\s*::\s*)?(?:Shared)?Mutex\s+\w+\s*[;{=]")

# A plain member-variable declaration by repo convention: optional mutable,
# a type, a trailing-underscore name, an optional initializer. Lines with
# parens (function declarations, paren-initializers) never match the callers'
# pre-filter, so this only has to recognize the data-member shape.
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?[A-Za-z_][\w:<>,\s*]*[\s>]\s*\w+_\s*"
    r"(?:=[^;]*|\{[^;]*\})?;")

# Member lines that need no GUARDED_BY: the synchronization primitives
# themselves, atomics (safe by type), const/static (immutable / not
# per-instance state), and references (unreassignable).
GUARDED_FIELD_EXEMPT_RE = re.compile(
    r"GUARDED_BY|PT_GUARDED_BY|\batomic\b|\bconst\b|\bstatic\b"
    r"|\bMutex\b|\bCondVar\b|&")

# Qualified uses only — `std::chrono` or the header include. A bare
# "chrono" substring would fire on "synchronous" in bench comments.
CHRONO_RE = re.compile(r"\bstd\s*::\s*chrono\b|#\s*include\s*<chrono>")


@dataclass
class Violation:
    rule: str
    path: pathlib.Path
    line: int  # 1-based; 0 when the finding is file-scoped
    message: str

    def render(self, root: pathlib.Path) -> str:
        rel = self.path.relative_to(root)
        loc = f"{rel}:{self.line}" if self.line else str(rel)
        return f"{loc}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure,
    so structural regexes (case labels, `.at(`) cannot match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allowed_rules(lines: list[str], line_idx: int) -> dict[str, bool]:
    """Suppressions on the given 0-based line or the line above it.
    Maps rule name -> whether a rationale was given."""
    rules: dict[str, bool] = {}
    for idx in (line_idx - 1, line_idx):
        if 0 <= idx < len(lines):
            m = ALLOW_RE.search(lines[idx])
            if m:
                rules[m.group(1)] = bool(m.group(2))
    return rules


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.violations: list[Violation] = []
        self.enums = self._parse_guarded_enums()

    def add(self, rule: str, path: pathlib.Path, line: int, message: str,
            lines: list[str] | None = None) -> None:
        if lines is not None and line:
            allows = allowed_rules(lines, line - 1)
            if rule in allows:
                if not allows[rule]:
                    self.violations.append(Violation(
                        rule, path, line,
                        f"allow({rule}) without a rationale — state the "
                        "invariant that makes this safe"))
                return
        self.violations.append(Violation(rule, path, line, message))

    # -- enum parsing --------------------------------------------------------

    def _parse_guarded_enums(self) -> dict[str, set[str]]:
        enums: dict[str, set[str]] = {}
        for name, rel in GUARDED_ENUMS.items():
            header = self.root / rel
            if not header.exists():
                continue  # layout changed; enum-switch degrades gracefully
            text = strip_comments_and_strings(header.read_text())
            m = re.search(
                rf"enum\s+class\s+{name}\b[^{{]*\{{(.*?)\}}", text, re.S)
            if not m:
                continue
            body = m.group(1)
            members = set(re.findall(r"\b(k[A-Za-z0-9_]+)\b", body))
            if members:
                enums[name] = members
        return enums

    # -- rules ---------------------------------------------------------------

    def check_enum_switch(self, path: pathlib.Path, text: str,
                          lines: list[str]) -> None:
        for m in re.finditer(r"\bswitch\s*\(", text):
            start_line = text.count("\n", 0, m.start()) + 1
            body, body_start = self._switch_body(text, m.end() - 1)
            if body is None:
                continue
            used = {name for name in self.enums
                    if re.search(rf"\bcase\s+(?:\w+::)*{name}::", body)}
            if not used:
                continue
            allows = allowed_rules(lines, start_line - 1)
            if "enum-switch" in allows:
                if not allows["enum-switch"]:
                    self.add("enum-switch", path, start_line,
                             "allow(enum-switch) without a rationale")
                continue
            if re.search(r"\bdefault\s*:", body):
                self.add("enum-switch", path, start_line,
                         f"switch over {'/'.join(sorted(used))} has a "
                         "`default:` arm — it would silently swallow newly "
                         "added enumerators; enumerate every case instead")
            for name in used:
                cased = set(re.findall(
                    rf"\bcase\s+(?:\w+::)*{name}::(k[A-Za-z0-9_]+)", body))
                missing = self.enums[name] - cased
                if missing:
                    self.add("enum-switch", path, start_line,
                             f"switch over {name} does not handle: "
                             + ", ".join(sorted(missing)))

    @staticmethod
    def _switch_body(text: str, paren_open: int):
        """Returns the brace-delimited body following switch's condition."""
        depth = 0
        i = paren_open
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        brace = text.find("{", i)
        if brace < 0:
            return None, 0
        depth = 0
        for j in range(brace, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    return text[brace + 1:j], brace
        return None, 0

    def check_brute_force_twins(self) -> None:
        decl_re = re.compile(r"\b(\w+)_brute_force\s*\(")
        test_text = "".join(
            p.read_text() for p in sorted((self.root / "tests").glob("*.cpp")))
        for header in sorted((self.root / "src").rglob("*.h")):
            text = strip_comments_and_strings(header.read_text())
            for m in decl_re.finditer(text):
                base = m.group(1)
                line = text.count("\n", 0, m.start()) + 1
                if not re.search(rf"\b{base}\s*\(", text.replace(
                        f"{base}_brute_force", "")):
                    self.add("brute-force-twin", header, line,
                             f"{base}_brute_force has no incremental twin "
                             f"`{base}(...)` in the same header")
                if f"{base}_brute_force" not in test_text:
                    self.add("brute-force-twin", header, line,
                             f"{base}_brute_force is never cross-checked "
                             "under tests/ — add a test comparing it against "
                             f"{base}()")

    def check_checked_at(self, rel: str, path: pathlib.Path, text: str,
                         lines: list[str]) -> None:
        if not any(p.match(rel) for p in CHECKED_AT_PATHS):
            return
        for i, line in enumerate(strip_comments_and_strings(text).split("\n")):
            if re.search(r"\.\s*at\s*\(", line):
                self.add("checked-at", path, i + 1,
                         "`.at()` on a consensus/tip-selection hot path can "
                         "throw on a peer-supplied id — use find()/contains() "
                         "or allow() with the invariant guaranteeing presence",
                         lines)

    def check_pow_midstate(self, rel: str, path: pathlib.Path, text: str,
                           lines: list[str]) -> None:
        if not any(p.match(rel) for p in POW_MIDSTATE_PATHS):
            return
        for i, line in enumerate(text.split("\n")):
            if re.search(r"\bpow_output\s*\(", line):
                self.add("pow-midstate", path, i + 1,
                         "single-shot pow_output() in src/consensus/ re-hashes "
                         "the constant parent prefix on every nonce — grind "
                         "through tangle::PowMidstate (output/output_many), or "
                         "allow() with why this call is off the mining path",
                         lines)

    def check_tangle_add(self, rel: str, path: pathlib.Path, text: str,
                         lines: list[str]) -> None:
        if any(p.match(rel) for p in TANGLE_ADD_ALLOWED_PATHS):
            return
        for i, line in enumerate(text.split("\n")):
            if TANGLE_ADD_RE.search(line):
                self.add("tangle-add", path, i + 1,
                         "direct Tangle attach bypasses the admission "
                         "pipeline's staged checks — route through "
                         "Gateway::admit()/admit_many(), or allow() with why "
                         "the staged checks are unnecessary here", lines)

    def check_drain_batch(self, rel: str, path: pathlib.Path, text: str,
                          lines: list[str]) -> None:
        if not rel.startswith("src/node/"):
            return
        n = len(text)
        for m in DRAIN_FN_RE.finditer(text):
            # Walk the argument list to its closing paren.
            i, depth = m.end() - 1, 0
            while i < n:
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if i >= n:
                continue
            # Definition, not a call: only whitespace and qualifier tokens
            # (const, noexcept, override) may sit between `)` and the body.
            j = i + 1
            while j < n and text[j] not in "{;":
                j += 1
            if j >= n or text[j] == ";":
                continue
            if not re.fullmatch(r"[\s\w]*", text[i + 1:j]):
                continue
            # Brace-match the body and flag every per-item admit inside it.
            k, depth = j, 0
            while k < n:
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            base_line = text.count("\n", 0, j)
            for off, body_line in enumerate(text[j:k].split("\n")):
                if ADMIT_ONE_RE.search(body_line):
                    self.add("drain-batch", path, base_line + off + 1,
                             "per-item admit() inside a drain path — batch "
                             "the chunk through Gateway::admit_many() so "
                             "in-chunk parent chains resolve and the "
                             "reconnect storm stays one staged pass per "
                             "chunk, or allow() with why this single "
                             "admission is not a queue drain", lines)

    def check_include_hygiene(self, rel: str, path: pathlib.Path,
                              text: str, lines: list[str]) -> None:
        includes = [(i + 1, m.group(1))
                    for i, line in enumerate(lines)
                    for m in [re.match(r'\s*#include\s+"([^"]+)"', line)]
                    if m]
        for line_no, inc in includes:
            if "../" in inc:
                self.add("include-hygiene", path, line_no,
                         f'include path "{inc}" escapes the include root — '
                         "include project headers relative to src/", lines)
        if path.suffix == ".h":
            if "#pragma once" not in text:
                self.add("include-hygiene", path, 0,
                         "src/ header is missing `#pragma once`")
        elif path.suffix == ".cpp":
            own = path.with_suffix(".h")
            if own.exists() and includes:
                expected = own.relative_to(self.root / "src").as_posix()
                line_no, first = includes[0]
                if first != expected:
                    self.add("include-hygiene", path, line_no,
                             f'first project include is "{first}" but this '
                             f'file implements "{expected}" — include your '
                             "own header first to prove it is self-contained",
                             lines)

    def check_raw_sync(self, path: pathlib.Path, text: str,
                       lines: list[str]) -> None:
        for i, line in enumerate(text.split("\n")):
            if RAW_SYNC_RE.search(line):
                self.add("raw-sync", path, i + 1,
                         "raw std:: synchronization primitive — use the "
                         "capability-annotated wrappers in src/common/sync.h "
                         "(sync::Mutex / MutexLock / CondVar) so the Thread "
                         "Safety Analysis and the lock-rank checker see the "
                         "acquisition, or allow() with why the wrapper "
                         "cannot be used here", lines)
            if RAW_THREAD_RE.search(line):
                self.add("raw-sync", path, i + 1,
                         "raw std::thread — run the work on the one pool in "
                         "src/common/executor.h (Executor / TaskGroup) so "
                         "every worker thread lives in one place, or allow() "
                         "with why a separate thread is needed", lines)

    def _class_bodies(self, text: str):
        """Yields (depth0_lines, …) per class/struct: the body lines at
        nesting depth 0 as (1-based line_no, line) pairs — member
        declarations, not inline function bodies or nested classes."""
        for m in re.finditer(r"\b(?:class|struct)\s+[A-Za-z_]\w*[^;{()]*\{",
                             text):
            if re.search(r"\benum\s+$", text[:m.start()]):
                continue  # enum class — no members to guard
            brace = m.end() - 1
            depth = 0
            end = None
            for j in range(brace, len(text)):
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            if end is None:
                continue
            body = text[brace + 1:end]
            body_line = text.count("\n", 0, brace) + 1
            depth0: list[tuple[int, str]] = []
            depth = 0
            for off, bline in enumerate(body.split("\n")):
                if depth == 0:
                    depth0.append((body_line + off, bline))
                depth += bline.count("{") - bline.count("}")
            yield depth0

    def check_guarded_field(self, path: pathlib.Path, text: str,
                            lines: list[str]) -> None:
        for depth0 in self._class_bodies(text):
            if not any(MUTEX_MEMBER_RE.search(b) for _, b in depth0):
                continue
            for line_no, bline in depth0:
                if "(" in bline or ")" in bline:
                    continue  # function decls / annotated or paren-init members
                if (MEMBER_DECL_RE.match(bline)
                        and not GUARDED_FIELD_EXEMPT_RE.search(bline)):
                    self.add("guarded-field", path, line_no,
                             "class owns a Mutex but this mutable field "
                             "carries no GUARDED_BY/PT_GUARDED_BY — the "
                             "Thread Safety Analysis only protects annotated "
                             "fields; annotate it, make it atomic/const, or "
                             "allow() with why lock-free access is safe",
                             lines)

    def check_bench_harness(self) -> None:
        bench_dir = self.root / "bench"
        if not bench_dir.is_dir():
            return
        include_re = re.compile(r'^\s*#include\s+"harness\.h"', re.M)
        for path in sorted(bench_dir.glob("*.cpp")):
            raw = path.read_text()
            lines = raw.split("\n")
            if not include_re.search(raw):
                self.add("bench-harness", path, 0,
                         'bench binary does not include "harness.h" — every '
                         "bench must emit its biot-bench-v1 trajectory "
                         "through the shared harness")
            for i, line in enumerate(
                    strip_comments_and_strings(raw).split("\n")):
                if CHRONO_RE.search(line):
                    self.add("bench-harness", path, i + 1,
                             "hand-rolled `std::chrono` timing in bench/ — "
                             "measure through Harness::bench()/measure() or "
                             "obs::WallTimer so the result lands in the "
                             "trajectory", lines)

    # -- driver --------------------------------------------------------------

    def run(self) -> list[Violation]:
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            raw = path.read_text()
            lines = raw.split("\n")
            stripped = strip_comments_and_strings(raw)
            rel = path.relative_to(self.root).as_posix()
            self.check_enum_switch(path, stripped, lines)
            self.check_checked_at(rel, path, raw, lines)
            self.check_pow_midstate(rel, path, stripped, lines)
            self.check_tangle_add(rel, path, stripped, lines)
            self.check_drain_batch(rel, path, stripped, lines)
            self.check_include_hygiene(rel, path, raw, lines)
            self.check_raw_sync(path, stripped, lines)
            self.check_guarded_field(path, stripped, lines)
        if (self.root / "tests").is_dir():
            self.check_brute_force_twins()
        self.check_bench_harness()
        return self.violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/ and tests/)")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"biot-lint: no src/ under {root}", file=sys.stderr)
        return 2
    violations = Linter(root).run()
    for v in violations:
        print(v.render(root))
    if violations:
        print(f"biot-lint: {len(violations)} violation(s)")
        return 1
    print("biot-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
