"""Pass 1: static lock-order graph.

Extracts every `pa::check` mutex declaration (its LockRank and printable
name), every `MutexLock`/`RecursiveMutexLock` acquisition site, and the
set of locks held at each site — RAII scopes tracked through brace
structure, balanced `lock.unlock()`/`lock.lock()` drops honored, lambda
bodies analyzed as fresh contexts (their bodies run on whichever thread
invokes them, not under the enclosing scope's locks), and functions whose
declarations carry `PA_REQUIRES(mu)` analyzed with `mu` held at entry.

Every acquisition edge (held mutex -> acquired mutex) must strictly
increase declared ranks; an inversion or a tie on *any* path — executed or
not — is a finding. This is strictly stronger than the runtime lock-rank
validator, which only sees paths a given run happens to execute.

Acquisition expressions resolve to declarations class-aware (several
classes name their lock `mutex_` at different ranks): same class first,
then same file, then directly-included project headers, then a repo-wide
unique rank; a genuinely ambiguous name is itself a finding, because a
reader suffers the same ambiguity.

A send on a connection (`conn->send(...)`, `conn_->send_gather(...)`)
counts as acquiring the kNetConnection mutex: TcpConnection takes it to
queue the frame, so a lock held across the send must rank below it.

The pass also regenerates the DESIGN.md lock table from code (ranks from
lock_rank.h, instances and observed nesting from the acquisition graph)
and fails when the checked-in, marker-delimited block disagrees.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from . import Finding
from .source import Index, SourceFile, iter_code, line_of, match_brace, \
    match_paren

PASS = "lock-order"

LOCK_RANK_HEADER = "include/pa/check/lock_rank.h"
DESIGN_FILE = "DESIGN.md"
TABLE_BEGIN = "<!-- pa_analyze:lock-table:begin -->"
TABLE_END = "<!-- pa_analyze:lock-table:end -->"

RANK_ENUM_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)")

# check::Mutex name{check::LockRank::kX, "printable"} — member or local,
# brace or paren init, optional namespace qualification on either token.
MUTEX_DECL_RE = re.compile(
    r"\b(?:check::)?(Mutex|RecursiveMutex)\s+(\w+)\s*[{(]\s*"
    r"(?:check::)?LockRank::k(\w+)\s*,\s*\"([^\"]*)\"",
    re.DOTALL,
)
# auto var = std::make_shared<check::Mutex>(check::LockRank::kX, "name")
MUTEX_MAKE_RE = re.compile(
    r"\b(\w+)\s*=\s*std::make_(?:shared|unique)<\s*(?:check::)?"
    r"(Mutex|RecursiveMutex)\s*>\s*\(\s*(?:check::)?LockRank::k(\w+)\s*,\s*"
    r"\"([^\"]*)\"",
    re.DOTALL,
)

ACQ_RE = re.compile(
    r"\b(?:check::)?(Recursive)?MutexLock\s+(\w+)\s*[({]\s*"
    r"([^;{}]+?)\s*[)}]\s*;"
)
RELOCK_RE = re.compile(r"\b(\w+)\s*\.\s*(un)?lock\s*\(\s*\)")
# A frame handed to a connection: acquires the kNetConnection mutex.
CONN_SEND_RE = re.compile(r"\bconn_?\s*->\s*send(?:_gather)?\s*\(")
CONN_RANK = "NetConnection"

# function-name -> required mutex exprs, harvested from declarations.
REQUIRES_DECL_RE = re.compile(
    r"\b(\w+)\s*\(((?:[^()]|\([^()]*\))*)\)\s*(?:const\s*)?(?:noexcept\s*)?"
    r"(?:PA_\w+\s*\([^()]*\)\s*)*PA_REQUIRES\s*\(([^()]*)\)"
)
# ... and inline definitions where the annotation abuts the body.
REQUIRES_INLINE_RE = re.compile(r"PA_REQUIRES\s*\(([^()]*)\)\s*\{")

CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:PA_\w+\s*\([^)]*\)\s*)?"
                      r"(\w+)[^;{()]*\{")
METHOD_DEF_RE = re.compile(
    r"\b(\w+)::(~?\w+)\s*\(((?:[^()]|\([^()]*\))*)\)")

INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

LAMBDA_BRACE_RE = re.compile(
    r"\]\s*(?:\([^()]*(?:\([^()]*\)[^()]*)*\))?\s*(?:mutable\s*)?"
    r"(?:noexcept\s*)?(?:->\s*[\w:<>,&*\s]+?)?\s*\{$"
)


@dataclasses.dataclass(frozen=True)
class MutexDecl:
    rel: str
    line: int
    kind: str  # "Mutex" | "RecursiveMutex"
    var: str
    rank_name: str
    rank: int
    printable: str
    cls: str | None  # innermost enclosing class/struct, if any


@dataclasses.dataclass
class Edge:
    held: MutexDecl
    acquired: MutexDecl
    rel: str
    line: int


def parse_ranks(index: Index) -> dict[str, int]:
    sf = index.get(LOCK_RANK_HEADER)
    if sf is None:
        return {}
    m = re.search(r"enum\s+class\s+LockRank[^{]*\{(.*?)\}", sf.code,
                  re.DOTALL)
    if m is None:
        return {}
    return {name: int(value)
            for name, value in RANK_ENUM_RE.findall(m.group(1))}


def class_spans(sf: SourceFile) -> list[tuple[str, int, int]]:
    spans = []
    for m in CLASS_RE.finditer(sf.code):
        open_idx = m.end() - 1
        spans.append((m.group(1), open_idx, match_brace(sf.code, open_idx)))
    return spans


def innermost_class(spans: list[tuple[str, int, int]],
                    pos: int) -> str | None:
    best = None
    best_len = None
    for name, start, end in spans:
        if start <= pos <= end and (best_len is None
                                    or end - start < best_len):
            best, best_len = name, end - start
    return best


def collect_decls(index: Index, ranks: dict[str, int],
                  findings: list[Finding]) -> list[MutexDecl]:
    decls: list[MutexDecl] = []
    for sf in index.files.values():
        spans = class_spans(sf)
        for m in MUTEX_DECL_RE.finditer(sf.code):
            kind, var, rank_name, printable = m.groups()
            _add_decl(decls, findings, ranks, sf, spans, m.start(), kind,
                      var, rank_name, printable)
        for m in MUTEX_MAKE_RE.finditer(sf.code):
            var, kind, rank_name, printable = m.groups()
            _add_decl(decls, findings, ranks, sf, spans, m.start(), kind,
                      var, rank_name, printable)
    return decls


def _add_decl(decls, findings, ranks, sf: SourceFile, spans, pos: int,
              kind: str, var: str, rank_name: str, printable: str) -> None:
    line = line_of(sf.code, pos)
    if rank_name not in ranks:
        findings.append(Finding(sf.rel, line, PASS,
                                f"mutex `{var}` declares unknown rank "
                                f"LockRank::k{rank_name}"))
        return
    decls.append(MutexDecl(sf.rel, line, kind, var, rank_name,
                           ranks[rank_name], printable,
                           innermost_class(spans, pos)))


def collect_requires(index: Index) -> dict[str, list[str]]:
    """function name -> mutex member exprs its declarations require held."""
    out: dict[str, list[str]] = {}
    for sf in index.files.values():
        for m in REQUIRES_DECL_RE.finditer(sf.code):
            name, caps = m.group(1), m.group(3)
            exprs = [c.strip() for c in caps.split(",") if c.strip()]
            if exprs:
                out.setdefault(name, [])
                for e in exprs:
                    if e not in out[name]:
                        out[name].append(e)
    return out


def base_name(expr: str) -> str:
    """Last identifier of a mutex expression: `impl_->mu` -> mu,
    `p.mutex` -> mutex, `*window_mutex` -> window_mutex, `mutex()` ->
    mutex."""
    expr = expr.strip()
    expr = re.sub(r"\(\s*\)\s*$", "", expr)
    parts = re.split(r"->|\.|::", expr)
    m = re.search(r"(\w+)\s*$", parts[-1].strip().lstrip("*&"))
    return m.group(1) if m else expr


class Resolver:
    """Maps an acquisition expression to a MutexDecl with class context."""

    def __init__(self, index: Index, decls: list[MutexDecl]):
        self.decls = decls
        self.by_name: dict[str, list[MutexDecl]] = {}
        self.by_file: dict[str, list[MutexDecl]] = {}
        for d in decls:
            self.by_name.setdefault(d.var, []).append(d)
            self.by_file.setdefault(d.rel, []).append(d)
        self.includes: dict[str, list[str]] = {}
        for sf in index.files.values():
            incs = []
            for inc in INCLUDE_RE.findall(sf.code):
                rel = f"include/{inc}"
                if rel in index.files:
                    incs.append(rel)
            self.includes[sf.rel] = incs

    def resolve(self, rel: str, cls: str | None, expr: str,
                line: int) -> MutexDecl | list[MutexDecl] | None:
        """A MutexDecl on success, a non-empty candidate list when the
        name stays ambiguous across ranks, None when entirely unknown."""
        name = base_name(expr)
        if expr.rstrip().endswith("()"):
            # Accessor form (`mutex()`): the name is a function, not the
            # member — a file with exactly one declared mutex is
            # unambiguous whatever the accessor is called.
            own = self.by_file.get(rel, [])
            if len({d.rank for d in own}) == 1 and own:
                return own[0]
        candidates = self.by_name.get(name, [])
        reachable = set(self.includes.get(rel, ())) | {rel}
        pools = [
            [d for d in candidates if d.rel == rel and d.cls == cls],
            [d for d in candidates if d.rel in reachable and d.cls == cls],
            [d for d in candidates if d.rel == rel],
            [d for d in candidates if d.rel in reachable],
            candidates,
        ]
        for k, pool in enumerate(pools):
            if not pool:
                continue
            if len({d.rank for d in pool}) == 1:
                return pool[0]
            if k in (0, 2):
                # Same-file collision: several function-local mutexes may
                # share a name (one per test body). Lexically nearest
                # preceding declaration wins, like actual scoping.
                preceding = [d for d in pool if d.line <= line]
                if preceding:
                    return max(preceding, key=lambda d: d.line)
            if pool is pools[-1]:
                return pool  # ambiguous everywhere
        return None


@dataclasses.dataclass
class Held:
    decl: MutexDecl
    lock_var: str
    depth: int
    active: bool = True


def analyze_file(sf: SourceFile, resolver: Resolver,
                 requires: dict[str, list[str]],
                 findings: list[Finding], edges: list[Edge]) -> None:
    code = sf.code
    spans = class_spans(sf)

    acq_at = {m.start(): m for m in ACQ_RE.finditer(code)}
    relock_at = {m.start(): m for m in RELOCK_RE.finditer(code)}
    conn_decl = next((d for d in resolver.decls
                      if d.rank_name == CONN_RANK), None)
    send_at = ({m.start(): m for m in CONN_SEND_RE.finditer(code)}
               if conn_decl is not None else {})

    # Method-definition spans give acquisitions their class context, and
    # annotated methods their entry-held locks.
    method_cls_at: list[tuple[int, int, str]] = []  # (open, close, class)
    entry_held_at: dict[int, list[str]] = {}
    for m in METHOD_DEF_RE.finditer(code):
        cls, fname = m.group(1), m.group(2)
        close = match_paren(code, code.find("(", m.start(1)))
        brace = re.match(
            r"\s*(?:const\s*)?(?:noexcept\s*)?"
            r"(?:PA_\w+\s*\([^()]*\)\s*)*(?::\s*[^{;]*)?\{",
            code[close + 1:close + 400])
        if not brace:
            continue
        open_idx = close + 1 + brace.end() - 1
        method_cls_at.append((open_idx, match_brace(code, open_idx), cls))
        if fname in requires:
            entry_held_at.setdefault(open_idx, []).extend(requires[fname])
    # Inline definitions whose PA_REQUIRES abuts the body.
    for m in REQUIRES_INLINE_RE.finditer(code):
        exprs = [c.strip() for c in m.group(1).split(",") if c.strip()]
        if exprs:
            entry_held_at.setdefault(m.end() - 1, []).extend(exprs)

    def context_class(pos: int) -> str | None:
        for open_idx, close_idx, cls in method_cls_at:
            if open_idx <= pos <= close_idx:
                return cls
        return innermost_class(spans, pos)

    held: list[Held] = []
    barriers: list[int] = []  # depths at which a lambda body starts
    depth = 0

    def visible_held() -> list[Held]:
        floor = barriers[-1] if barriers else 0
        return [h for h in held if h.active and h.depth >= floor]

    def check_edge(h: Held, acq: MutexDecl, line: int) -> None:
        if acq.rank > h.decl.rank:
            return
        if h.decl is acq and acq.kind == "RecursiveMutex":
            return  # legal re-entry by the holding thread
        if acq.rank < h.decl.rank:
            findings.append(Finding(
                sf.rel, line, PASS,
                f"lock-order inversion: acquires `{acq.printable}` "
                f"(rank {acq.rank}, k{acq.rank_name}) while holding "
                f"`{h.decl.printable}` (rank {h.decl.rank}, "
                f"k{h.decl.rank_name}) — ranks must strictly increase"))
        else:
            findings.append(Finding(
                sf.rel, line, PASS,
                f"lock-order tie: acquires `{acq.printable}` at rank "
                f"{acq.rank} while already holding `{h.decl.printable}` "
                f"at the same rank — equal ranks never nest"))

    def do_acquire(m: re.Match) -> None:
        lock_var, expr = m.group(2), m.group(3)
        line = line_of(code, m.start())
        resolved = resolver.resolve(sf.rel, context_class(m.start()), expr,
                                    line)
        if resolved is None:
            findings.append(Finding(
                sf.rel, line, PASS,
                f"cannot resolve mutex `{expr}` to a ranked declaration — "
                f"declare it as check::Mutex{{LockRank::..., \"name\"}}"))
            return
        if isinstance(resolved, list):
            ranks = sorted({f"k{d.rank_name}({d.rank})" for d in resolved})
            findings.append(Finding(
                sf.rel, line, PASS,
                f"mutex `{expr}` is ambiguous across ranks "
                f"{', '.join(ranks)} — rename the member so the "
                f"acquisition resolves uniquely"))
            return
        visible = visible_held()
        reentry = resolved.kind == "RecursiveMutex" and any(
            h.decl is resolved for h in visible)
        if not reentry:
            # Re-entry by the holding thread is exempt from the rank rule
            # (the runtime validator exempts it too); a fresh acquisition
            # is checked against every lock visible in this context.
            for h in visible:
                edges.append(Edge(h.decl, resolved, sf.rel, line))
                check_edge(h, resolved, line)
        held.append(Held(resolved, lock_var, depth))

    for pos, c in iter_code(code):
        if pos in acq_at:
            do_acquire(acq_at[pos])
        elif pos in send_at:
            line = line_of(code, pos)
            for h in visible_held():
                edges.append(Edge(h.decl, conn_decl, sf.rel, line))
                check_edge(h, conn_decl, line)
        elif pos in relock_at:
            m = relock_at[pos]
            var, is_unlock = m.group(1), m.group(2) is not None
            for h in reversed(held):
                if h.lock_var == var:
                    h.active = not is_unlock
                    break
        if c == "{":
            depth += 1
            if pos in entry_held_at:
                for expr in entry_held_at[pos]:
                    r = resolver.resolve(sf.rel, context_class(pos), expr,
                                         line_of(code, pos))
                    if isinstance(r, MutexDecl):
                        # Best-effort: unresolved entry annotations (the
                        # name collides with another class's helper) are
                        # skipped, not reported.
                        held.append(Held(r, f"<entry:{expr}>", depth))
            else:
                window = code[max(0, pos - 240):pos + 1]
                if LAMBDA_BRACE_RE.search(window):
                    barriers.append(depth)
        elif c == "}":
            while held and held[-1].depth >= depth:
                held.pop()
            if barriers and barriers[-1] >= depth:
                barriers.pop()
            depth -= 1


def library_table(ranks: dict[str, int], decls: list[MutexDecl],
                  edges: list[Edge]) -> str:
    """The generated lock table: one row per declared rank with the
    library mutexes at that rank and the ranks observed acquired while one
    of them is held. Derived entirely from code; DESIGN.md embeds it
    between markers and this pass fails on drift."""

    def is_library(rel: str) -> bool:
        return rel.startswith("include/") or rel.startswith("src/")

    instances: dict[int, set[str]] = {}
    for d in decls:
        if is_library(d.rel):
            instances.setdefault(d.rank, set()).add(d.printable)
    nests: dict[int, set[int]] = {}
    for e in edges:
        if is_library(e.rel):
            nests.setdefault(e.held.rank, set()).add(e.acquired.rank)

    lines = [
        "| Rank | Enum (`check::LockRank`) | Library mutexes | "
        "Acquires while held (observed ranks) |",
        "|-----:|------|------|------|",
    ]
    for name, value in sorted(ranks.items(), key=lambda kv: kv[1]):
        names = ", ".join(f"`{n}`" for n in sorted(instances.get(value, ())))
        over = ", ".join(str(r) for r in sorted(nests.get(value, ())))
        lines.append(f"| {value} | `k{name}` | {names or '—'} | "
                     f"{over or '—'} |")
    return "\n".join(lines) + "\n"


def build(index: Index) -> tuple[list[Finding], str]:
    """Runs the graph analysis; returns (findings, generated table)."""
    findings: list[Finding] = []
    ranks = parse_ranks(index)
    if not ranks:
        findings.append(Finding(LOCK_RANK_HEADER, 1, PASS,
                                "could not parse the LockRank enum"))
        return findings, ""
    decls = collect_decls(index, ranks, findings)
    resolver = Resolver(index, decls)
    requires = collect_requires(index)
    edges: list[Edge] = []
    for sf in index.files.values():
        analyze_file(sf, resolver, requires, findings, edges)
    return findings, library_table(ranks, decls, edges)


def emit_lock_table(index: Index) -> str:
    return build(index)[1]


def check_design_table(index: Index, table: str,
                       findings: list[Finding]) -> None:
    design_path = Path(index.root) / DESIGN_FILE
    if not design_path.is_file():
        findings.append(Finding(DESIGN_FILE, 1, PASS,
                                "DESIGN.md missing — the lock table lives "
                                "there between pa_analyze markers"))
        return
    text = design_path.read_text(encoding="utf-8")
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        findings.append(Finding(
            DESIGN_FILE, 1, PASS,
            f"lock-table markers not found — wrap the generated table in "
            f"`{TABLE_BEGIN}` / `{TABLE_END}` (regenerate with "
            f"`python3 tools/pa_analyze --emit-lock-table`)"))
        return
    current = text[begin + len(TABLE_BEGIN):end].strip("\n")
    expected = table.strip("\n")
    if current == expected:
        return
    line = line_of(text, begin) + 1
    cur_lines = current.splitlines()
    exp_lines = expected.splitlines()
    detail = ""
    for k in range(max(len(cur_lines), len(exp_lines))):
        c = cur_lines[k] if k < len(cur_lines) else "<missing>"
        e = exp_lines[k] if k < len(exp_lines) else "<missing>"
        if c != e:
            detail = f" (first drift: checked-in `{c}` vs code `{e}`)"
            line += k
            break
    findings.append(Finding(
        DESIGN_FILE, line, PASS,
        f"lock table drifted from code{detail} — regenerate with "
        f"`python3 tools/pa_analyze --fix-lock-table`"))


def fix_design_table(index: Index) -> bool:
    """Rewrites the DESIGN.md marker block in place. True on success."""
    design_path = Path(index.root) / DESIGN_FILE
    if not design_path.is_file():
        return False
    text = design_path.read_text(encoding="utf-8")
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        return False
    table = emit_lock_table(index)
    new = (text[:begin + len(TABLE_BEGIN)] + "\n" + table +
           text[end:])
    design_path.write_text(new, encoding="utf-8")
    return True


# Deliberate violations (the runtime validator's own death tests) carry a
# justified suppression on or just above the acquisition, mirroring the
# lint.py meta-rule that every suppression names its reason:
#     // pa_analyze:allow(lock-order): <reason>
ALLOW_RE = re.compile(r"pa_analyze:allow\(lock-order\)\s*:\s*\S")


def suppressed(index: Index, f: Finding) -> bool:
    sf = index.get(f.path)
    if sf is None:
        return False
    lines = sf.raw.splitlines()
    lo = max(0, f.line - 3)
    return any(ALLOW_RE.search(lines[i])
               for i in range(lo, min(f.line, len(lines))))


def run(index: Index) -> list[Finding]:
    findings, table = build(index)
    if table:
        check_design_table(index, table, findings)
    seen: set[tuple[str, int, str]] = set()
    unique: list[Finding] = []
    for f in findings:
        key = (f.path, f.line, f.message)
        if key not in seen and not suppressed(index, f):
            seen.add(key)
            unique.append(f)
    return unique
