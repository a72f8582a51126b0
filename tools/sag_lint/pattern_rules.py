"""Line-pattern rules: determinism and concurrency confinement.

Solver output is a pure function of (scenario, options, seed): threads=N,
the serial path and yesterday's binary agree bit for bit
(docs/PERFORMANCE.md).  Three rules keep the sources that would break
that out of src/:

  det-entropy    no ambient entropy anywhere in src/: std::random_device,
                 C rand()/srand(), wall-clock seeding via time(nullptr),
                 or a default-constructed (unseeded) std::mt19937.  An
                 explicitly seeded std::mt19937_64 is the one sanctioned
                 randomness and does not match.
  det-unordered  no unordered_map/unordered_set anywhere in src/: their
                 iteration order is implementation-defined.
  conc-raw       no raw std::thread/std::mutex/std::condition_variable,
                 lock helper or threading header in src/ outside
                 src/exec/: all parallelism flows through exec::ThreadPool
                 and the thread-safety-annotated exec::Mutex/CondVar.
                 std::atomic stays allowed.

Each rule is a pattern matched line by line against the stripped source,
so a name in a comment or a string never matches, and every hit carries
the `path:line:content` key the allowlist fragments match against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from core import (
    Finding,
    RULE_CONC_RAW,
    RULE_DET_ENTROPY,
    RULE_DET_UNORDERED,
)


@dataclass(frozen=True)
class PatternRule:
    rule: str
    pattern: re.Pattern
    scope: tuple  # path prefixes the rule covers
    exempt: tuple  # path prefixes inside the scope it skips
    message: str  # `{hit}` is replaced by the matched text


RULES = (
    PatternRule(
        RULE_DET_ENTROPY,
        re.compile(
            r"std::random_device"
            r"|(?<!\w)(?:rand|srand)\s*\("
            r"|(?<!\w)time\s*\(\s*(?:nullptr|NULL)\s*\)"
            r"|mt19937(?:_64)?\s+[A-Za-z_]\w*\s*(?:;|\{\s*\}|=\s*\{\s*\})"),
        ("src/",), (),
        "nondeterminism source `{hit}` in src/; seed a std::mt19937_64 "
        "explicitly"),
    PatternRule(
        RULE_DET_UNORDERED,
        re.compile(r"unordered_(?:map|set)"),
        ("src/",), (),
        "unordered container(s) in src/: `{hit}`; use an ordered "
        "container or a sorted vector"),
    PatternRule(
        RULE_CONC_RAW,
        re.compile(
            r"std::(?:thread|jthread|mutex|timed_mutex|recursive_mutex"
            r"|shared_mutex|shared_timed_mutex|condition_variable"
            r"|condition_variable_any|lock_guard|unique_lock|scoped_lock"
            r"|shared_lock|call_once|once_flag)(?!\w)"
            r"|#\s*include\s*<(?:thread|mutex|shared_mutex"
            r"|condition_variable)>"),
        ("src/",), ("src/exec/",),
        "raw threading primitive(s) outside src/exec/: `{hit}`; route "
        "through exec::ThreadPool / exec::Mutex (sag/exec/mutex.h) so the "
        "locking is thread-safety-annotated and TSan-covered"),
)


def run(sources) -> list:
    """One finding per rule per matching line."""
    findings = []
    for src in sources:
        rules = [r for r in RULES
                 if src.path.startswith(r.scope)
                 and not src.path.startswith(r.exempt)]
        if not rules:
            continue
        for lineno, line in enumerate(src.stripped.split("\n"), 1):
            for r in rules:
                m = r.pattern.search(line)
                if m:
                    findings.append(Finding(
                        rule=r.rule, path=src.path, line=lineno,
                        message=r.message.format(hit=m.group(0)),
                        content=src.line_text(lineno)))
    return findings
