#!/usr/bin/env python3
"""Project-invariant linter: fast repo rules clang-tidy cannot express.

Run from anywhere (the repo root is located relative to this file), or via
tools/lint.sh. Exits 1 if any rule is violated, printing one
`path:line: [rule] message` per finding. The lint_invariants ctest runs it.

Rules
-----
raw-sync        src/core/sync.h is the ONLY file that may name the std::
                synchronization primitives (std::mutex, std::lock_guard,
                std::unique_lock, std::condition_variable, ...) or include
                their headers. Everything else uses the annotated wrappers
                (sync::Mutex, sync::MutexLock, sync::CondVar, ...), so the
                Clang thread-safety analysis and the LockOrderRegistry see
                every acquisition in the process.

ignore-status   Every IgnoreStatus(...) call carries a `// why:` justification
                on the same line or in the comment block above. Dropping a
                Status is sometimes right (destructors, best-effort cleanup)
                but never self-evident.

hot-path        Between `// LINT:hot-path` and `// LINT:hot-path-end`
                markers, no heap allocation may appear: no `new`, no
                malloc/calloc/realloc, no raw std::vector declaration
                (ArenaVector — arena-backed, heap-free when warm — is the
                sanctioned growable buffer there). This is the PR 6
                zero-allocation descent guarantee, enforced at review time
                rather than only by the operator-new counting test.

bench-stdout    Bench binaries print only BASELINE/JSON lines on stdout so
                CI can scrape them. In bench/*.cpp, std::cout and puts are
                banned, and a printf must be a `BASELINE ...` or `JSON ...`
                (or raw `{...}`) line; human-readable tables go through
                obs::Log* (stderr) or the bench:: helpers in bench/common.h.

lock-rank-table The set of (rank, mutex name) pairs declared in src/ equals
                the rows of the rank table in DESIGN.md section 12. A
                declaration is a sync::Mutex built from a name string and a
                sync::lock_rank::kX constant (brace or paren initializer, on
                one line or wrapped); kX is resolved to its number in
                src/core/sync.h. A mutex added, renamed or
                re-ranked without its table row (or a stale row) is flagged.

value-bytes     Two checks in src/. (1) No memcpy/ReadBytes/WriteBytes call
                (on one line or wrapped) has sizeof(V) as its size argument:
                a run of page values is added through ValueOps<V>
                (src/core/value_ops.h, the one file exempt), and a single
                value is copied with Page::ReadAt<V> / WriteAt<V>.
                Multi-value moves (a size of k * sizeof(V)) are not flagged.
                (2) No local `V x = <expr>;` (or `V x{<expr>}`) is written
                back with `<expr> = x;` later in the same block: that
                local-copy accumulator is what let GCC split a Poly2 sum
                into one scalar add per coefficient; add in place instead.
                Neither check sees whether a loop still vectorizes, nor a
                local accumulator that is not written back to its source.

visit-site      In src/, obs::NoteNodeVisit, BufferPool::NoteProbeFetchesSaved
                and obs::NoteBorderProbes are called only from
                src/core/batch_descent.h, the one batched descent of the page
                trees. The files that define them (obs/query_obs.*,
                storage/buffer_pool.*) are exempt. Per-visit accounting (the
                node_visits == logical_reads identity, and any per-layer
                timer or pool hook added at the visit) then has one site.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# The one file allowed to name raw std:: synchronization primitives.
SYNC_H = os.path.join("src", "core", "sync.h")

# The one file allowed to copy a whole V out of page bytes.
VALUE_OPS_H = os.path.join("src", "core", "value_ops.h")
VALUE_COPY_CALL = re.compile(
    r"\b(?:std::)?memcpy\s*\(|\b(?:ReadBytes|WriteBytes)\s*\(")
VALUE_SIZE_ARG = re.compile(r"sizeof\s*\(\s*V\s*\)")
# A local V copied from an expression: `V acc = outs[i];` or `V acc{outs[i]};`.
VALUE_LOCAL_COPY = re.compile(
    r"\bV\s+(\w+)\s*(?:=\s*([^;{}]+?)|\{([^;{}]+)\})\s*;")

# The one file that may note node visits, saved probe fetches and border
# probes, and the files that define those hooks.
BATCH_DESCENT_H = os.path.join("src", "core", "batch_descent.h")
VISIT_HOOK_HOMES = {os.path.join("src", "obs", "query_obs.h"),
                    os.path.join("src", "obs", "query_obs.cc"),
                    os.path.join("src", "storage", "buffer_pool.h"),
                    os.path.join("src", "storage", "buffer_pool.cc")}
VISIT_HOOK_CALL = re.compile(
    r"\b(NoteNodeVisit|NoteProbeFetchesSaved|NoteBorderProbes)\s*\(")

DESIGN_MD = "DESIGN.md"
RANK_NAMESPACE = re.compile(r"namespace lock_rank \{(.*?)\}", re.S)
RANK_CONSTANT = re.compile(
    r"inline\s+constexpr\s+uint32_t\s+(k\w+)\s*=\s*(\d+)\s*;")
# Matched against comment-stripped code, where string literals are blanked
# to spaces but keep their quotes and columns; the name is then read back
# from the raw text at the same offsets.
RANKED_MUTEX = re.compile(
    r"\bsync::Mutex\s+\w+\s*[{(]\s*(\"[^\"]*\")\s*,"
    r"\s*sync::lock_rank::(k\w+)\s*[})]")
RANK_TABLE_ROW = re.compile(r"^\|\s*(\d+)\s*\|\s*`([^`]+)`\s*\|")

RAW_SYNC_TYPES = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_SYNC_INCLUDES = re.compile(
    r'#\s*include\s*[<"](mutex|shared_mutex|condition_variable)[>"]'
)

IGNORE_STATUS_CALL = re.compile(r"\bIgnoreStatus\s*\(")
IGNORE_STATUS_DEFN = re.compile(r"(void|inline)\s+IgnoreStatus\s*\(")

HOT_PATH_BEGIN = "// LINT:hot-path"
HOT_PATH_END = "// LINT:hot-path-end"
HOT_PATH_FORBIDDEN = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "placement/operator new"),
    (re.compile(r"\b(std::)?(malloc|calloc|realloc)\s*\("), "malloc-family"),
    (re.compile(r"\bstd::vector\s*<"), "raw std::vector (use ArenaVector)"),
    (re.compile(r"\bstd::string\b"), "std::string"),
    (re.compile(r"\bmake_unique\b|\bmake_shared\b"), "smart-pointer allocation"),
]

# A printf whose first string literal starts with one of these prefixes is a
# sanctioned machine-readable stdout line.
BENCH_STDOUT_OK = re.compile(r'^\s*"\s*(BASELINE|JSON|\{|\[)')
BENCH_PRINTF = re.compile(r"(?<![\w.])(?:std::)?printf\s*\(")
BENCH_BANNED = [
    (re.compile(r"\bstd::cout\b"), "std::cout writes to stdout"),
    (re.compile(r"(?<![\w.])puts\s*\("), "puts writes to stdout"),
    (re.compile(r"\bfprintf\s*\(\s*stdout\b"), "fprintf(stdout, ...)"),
    (re.compile(r"\bfputs\s*\([^,]*,\s*stdout\s*\)"), "fputs(..., stdout)"),
]
# bench:: helpers (shared headers) are the sanctioned formatting layer.
BENCH_HELPER_FILES = {os.path.join("bench", "common.h"),
                      os.path.join("bench", "suite.h")}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines and
    column positions so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_source_files():
    for top in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, top)
        if not os.path.isdir(root):
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d not in ("build",)]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, REPO_ROOT), full


def check_raw_sync(rel, raw_lines, code_lines, findings):
    if rel == SYNC_H:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = RAW_SYNC_TYPES.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "raw-sync",
                f"raw {m.group(0)} outside src/core/sync.h — use the "
                "annotated sync:: wrappers"))
    # Includes live outside strings/comments already, but headers can be
    # spelled inside strings in the linter itself; use code_lines too.
    for lineno, line in enumerate(raw_lines, 1):
        if RAW_SYNC_INCLUDES.search(line) and "lint:allow" not in line:
            findings.append(Finding(
                rel, lineno, "raw-sync",
                "direct include of a std synchronization header outside "
                "src/core/sync.h"))


def check_ignore_status(rel, raw_lines, findings):
    for lineno, line in enumerate(raw_lines, 1):
        if not IGNORE_STATUS_CALL.search(line):
            continue
        if IGNORE_STATUS_DEFN.search(line):
            continue  # the sink's own definition/declaration
        justified = "why:" in line
        # Walk up through the contiguous `//` comment block directly above.
        k = lineno - 2
        while not justified and k >= 0:
            prev = raw_lines[k].strip()
            if not prev.startswith("//"):
                break
            justified = "why:" in prev
            k -= 1
        if justified:
            continue
        findings.append(Finding(
            rel, lineno, "ignore-status",
            "IgnoreStatus() without a `// why:` justification on the same "
            "line or in the comment block above"))


def check_hot_path(rel, raw_lines, code_lines, findings):
    in_region = False
    region_open_line = 0
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        stripped = raw.strip()
        if stripped.startswith(HOT_PATH_END):
            in_region = False
            continue
        if stripped.startswith(HOT_PATH_BEGIN):
            in_region = True
            region_open_line = lineno
            continue
        if not in_region:
            continue
        for pattern, what in HOT_PATH_FORBIDDEN:
            if pattern.search(code):
                findings.append(Finding(
                    rel, lineno, "hot-path",
                    f"{what} inside the LINT:hot-path region opened at "
                    f"line {region_open_line} (zero-allocation descent "
                    "guarantee)"))
    if in_region:
        findings.append(Finding(
            rel, region_open_line, "hot-path",
            "LINT:hot-path region never closed with LINT:hot-path-end"))


def first_string_literal_after(raw_lines, lineno, col):
    """The first string literal at/after raw_lines[lineno-1][col:], looking
    up to 3 lines ahead (printf calls often wrap)."""
    snippet = raw_lines[lineno - 1][col:]
    for extra in range(0, 3):
        idx = lineno - 1 + extra
        if idx >= len(raw_lines):
            break
        if extra > 0:
            snippet = raw_lines[idx]
        m = re.search(r'"', snippet)
        if m:
            return snippet[m.start():]
    return ""


def check_bench_stdout(rel, raw_lines, code_lines, findings):
    if not rel.startswith("bench" + os.sep) or not rel.endswith(".cpp"):
        return
    for lineno, code in enumerate(code_lines, 1):
        for pattern, what in BENCH_BANNED:
            if pattern.search(code):
                findings.append(Finding(
                    rel, lineno, "bench-stdout",
                    f"{what}; bench stdout is BASELINE/JSON lines only "
                    "(use obs::Log* or bench:: helpers)"))
        m = BENCH_PRINTF.search(code)
        if m:
            literal = first_string_literal_after(raw_lines, lineno, m.end())
            if not BENCH_STDOUT_OK.match(literal):
                findings.append(Finding(
                    rel, lineno, "bench-stdout",
                    "printf that is not a BASELINE/JSON line; bench stdout "
                    "is machine-readable only (use obs::Log* for tables)"))


def call_args(code, open_paren):
    """The top-level arguments of the call whose "(" is at code[open_paren],
    or None when the parentheses do not close."""
    args, depth, start = [], 0, open_paren + 1
    for i in range(open_paren, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
    return None


def rest_of_block(code, start):
    """code[start:] up to the "}" that closes the block enclosing start."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth < 0:
                return code[start:i]
    return code[start:]


def check_value_bytes(rel, code, findings):
    if not rel.startswith("src" + os.sep) or rel == VALUE_OPS_H:
        return
    for m in VALUE_COPY_CALL.finditer(code):
        args = call_args(code, m.end() - 1)
        if not args or not VALUE_SIZE_ARG.fullmatch(args[-1].strip()):
            continue
        findings.append(Finding(
            rel, code.count("\n", 0, m.start()) + 1, "value-bytes",
            "one V copied by sizeof(V): add page values with ValueOps<V>, "
            "copy one value with Page::ReadAt<V> / WriteAt<V>"))
    for m in VALUE_LOCAL_COPY.finditer(code):
        source = re.sub(r"\s+", "", m.group(2) or m.group(3))
        rest = re.sub(r"\s+", "", rest_of_block(code, m.end()))
        write_back = (r"(?<![\w.>])" + re.escape(source) + "=" +
                      m.group(1) + ";")
        if re.search(write_back, rest):
            findings.append(Finding(
                rel, code.count("\n", 0, m.start()) + 1, "value-bytes",
                "local copy of a V written back to " + source +
                ": add into it in place"))


def check_visit_site(rel, code_lines, findings):
    if (not rel.startswith("src" + os.sep) or rel == BATCH_DESCENT_H
            or rel in VISIT_HOOK_HOMES):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = VISIT_HOOK_CALL.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "visit-site",
                f"{m.group(1)} called outside src/core/batch_descent.h — "
                "descents go through BatchDescent, the one visit site"))


def rank_constants():
    """{kX: rank} for the constants of sync.h's lock_rank namespace."""
    with open(os.path.join(REPO_ROOT, SYNC_H), encoding="utf-8") as f:
        block = RANK_NAMESPACE.search(f.read())
    return {m.group(1): int(m.group(2))
            for m in RANK_CONSTANT.finditer(block.group(1) if block else "")}


def design_rank_rows():
    """{(rank, name): line} for the rows of DESIGN.md section 12's table."""
    rows = {}
    in_section = False
    with open(os.path.join(REPO_ROOT, DESIGN_MD), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.startswith("## "):
                in_section = line.startswith("## 12.")
                continue
            m = RANK_TABLE_ROW.match(line) if in_section else None
            if m:
                rows[(int(m.group(1)), m.group(2))] = lineno
    return rows


def ranked_mutexes(rel, text, code, ranks, declared, findings):
    """Adds {(rank, name): (path, line)} for each ranked mutex in a file."""
    for m in RANKED_MUTEX.finditer(code):
        lineno = code.count("\n", 0, m.start()) + 1
        name = text[m.start(1) + 1:m.end(1) - 1]
        if m.group(2) not in ranks:
            findings.append(Finding(
                rel, lineno, "lock-rank-table",
                f"sync::lock_rank::{m.group(2)} is not defined in {SYNC_H}"))
            continue
        declared[(ranks[m.group(2)], name)] = (rel, lineno)


def check_lock_rank_table(declared, findings):
    rows = design_rank_rows()
    for (rank, name), (rel, lineno) in sorted(declared.items()):
        if (rank, name) not in rows:
            findings.append(Finding(
                rel, lineno, "lock-rank-table",
                f"mutex `{name}` at rank {rank} has no row in the "
                f"{DESIGN_MD} section 12 rank table"))
    for (rank, name), lineno in sorted(rows.items()):
        if (rank, name) not in declared:
            findings.append(Finding(
                DESIGN_MD, lineno, "lock-rank-table",
                f"rank table row {rank} `{name}` matches no mutex "
                "declared in src/"))


def main(argv) -> int:
    findings: list[Finding] = []
    nfiles = 0
    ranks = rank_constants()
    declared: dict = {}
    for rel, full in iter_source_files():
        nfiles += 1
        with open(full, "r", encoding="utf-8") as f:
            text = f.read()
        code = strip_comments_and_strings(text)
        raw_lines = text.splitlines()
        code_lines = code.splitlines()
        # splitlines() drops a trailing empty element mismatch only if the
        # stripper changed the line count, which it never does.
        assert len(raw_lines) == len(code_lines), rel
        check_raw_sync(rel, raw_lines, code_lines, findings)
        check_ignore_status(rel, raw_lines, findings)
        check_hot_path(rel, raw_lines, code_lines, findings)
        check_bench_stdout(rel, raw_lines, code_lines, findings)
        check_value_bytes(rel, code, findings)
        check_visit_site(rel, code_lines, findings)
        if rel.startswith("src" + os.sep):
            ranked_mutexes(rel, text, code, ranks, declared, findings)
    check_lock_rank_table(declared, findings)
    for f in findings:
        print(f)
    summary = (f"lint_invariants: {len(findings)} violation(s) in "
               f"{nfiles} files scanned")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
