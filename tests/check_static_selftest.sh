#!/usr/bin/env bash
# Self-test for the tools/check_static.sh static gate, registered as the
# `check_static_selftest` ctest case.
#
# A lint that never fires is indistinguishable from a lint that works, so
# this harness proves each rule both accepts and rejects: it copies the
# script, the sag_lint engine, and the allowlist's comment header into a
# temp tree with its own mini layering manifest and DESIGN.md, seeds
# exactly one violation per rule, and asserts the gate fails with that
# rule's message — then asserts it passes on the clean temp tree AND on
# the real repository. Covered:
#
#   * units-param / ids-param / gain-param — plain violations, plus the
#     evasions a grep lint could not see: a typedef'd/using-aliased
#     type name, and (as accepts) signatures quoted in comments/strings;
#   * det-entropy / det-unordered / conc-raw — plain violations (an
#     unordered container in src/opt and in src/geometry), the src/exec
#     exemption, and (as an accept) the banned names quoted in a comment
#     or a string;
#   * digit separators — a units-param or conc-raw violation written
#     after a `1'000` literal still fails (the stripper must not read
#     the separator as the start of a char literal);
#   * raw-escape — an unjustified .raw() fails, a `// SAG_RAW_OK:` one
#     passes;
#   * layering — an undeclared include edge fails, a declared-but-unused
#     manifest edge (dead edge) fails, a DESIGN.md layering block that
#     drifts from the manifest fails, and deleting a module or an edge
#     from the REAL tools/layering.json makes the real tree fail (every
#     manifest entry is load-bearing);
#   * the one allowlist — an allowlisted violation passes; an entry
#     that matches nothing fails, and so does one without a `rule-id:`
#     prefix;
#   * dead-api — a public-header function called only from tests/,
#     named only in a comment or string, referenced only by its own
#     out-of-line definition, or sharing its name only with a caller's
#     variable fails; one called from bench/, only from perfbench/, or
#     by another inline function of its header, or passed by qualified
#     name without a call, passes; an allowlisted one passes, and its
#     entry is dead once it goes;
#   * doc-names — a backticked `module::name` with no code behind it
#     fails, a real one passes;
#   * degradation policy — a missing compilation database passes locally
#     but hard-fails under CI=true.
#
# The clang-tidy pass never runs here (the temp build dir doesn't
# exist), and CI is stripped from the environment for the temp-tree runs
# so the strict-mode policy is exercised only by its dedicated case.
set -u
cd "$(dirname "$0")/.."
repo_root=$(pwd)

fail=0
err() { echo "check_static_selftest: $*" >&2; fail=1; }

# sag_lint is check_static.sh's only engine for every domain rule, so
# the gate (and this harness) needs python3.
if ! command -v python3 >/dev/null 2>&1; then
    echo "check_static_selftest: python3 not found; check_static.sh requires it" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Minimal clean tree: the script cds to its own parent, so tools/ must
# hold the script, the sag_lint engine, the layering manifest, and the
# allowlist with their repo-relative names, and the root a DESIGN.md.
mkdir -p "$tmp/tools" "$tmp/src/core/include/sag/core" "$tmp/src/core/src" \
         "$tmp/src/opt/src" "$tmp/src/sim/src" "$tmp/src/exec/src"
cp tools/check_static.sh "$tmp/tools/"
cp -r tools/sag_lint "$tmp/tools/"
# The allowlist's comment header only: the real entries name headers
# that do not exist here, so every one of them would be dead.
reset_allowlist() {
    awk '!/^#/ { exit } { print }' tools/check_static_allowlist.txt \
        > "$tmp/tools/check_static_allowlist.txt"
}
reset_allowlist
# The temp tree gets its own manifest (the real one's modules don't
# exist here, and its edges would all be dead). No deps: every declared
# cross-module include in a seeded file is an illegal edge.
cat > "$tmp/tools/layering.json" <<'EOF'
{
  "modules": {
    "core": { "deps": [] },
    "opt": { "deps": [] },
    "sim": { "deps": [] },
    "exec": { "deps": [] },
    "geometry": { "deps": [] }
  },
  "apex": ["tools"]
}
EOF
# DESIGN.md's layering block mirrors the mini manifest line for line.
cat > "$tmp/DESIGN.md" <<'EOF'
## Module layering DAG

```layering
core ->
opt ->
sim ->
exec ->
geometry ->
```
EOF
cat > "$tmp/src/core/src/clean.cpp" <<'EOF'
// A benign file: typed parameters, seeded randomness, ordered containers.
#include <cstddef>
namespace sag::core {
int clean_helper(int subscriber_count) { return subscriber_count + 1; }
}  // namespace sag::core
EOF

# CI is stripped so GitHub Actions' CI=true doesn't flip every temp-tree
# run into strict mode (which would fail on the nonexistent build dir);
# the strict policy has its own case below.
run_script() {  # runs the copied script in the temp tree, captures output
    out=$( cd "$tmp" && env -u CI bash tools/check_static.sh no-such-build-dir 2>&1 )
    status=$?
}

# --- positive control: the clean temp tree passes --------------------------
run_script
if [ "$status" -ne 0 ]; then
    err "clean temp tree should pass, got exit $status:"; echo "$out" >&2
fi

# --- one seeded violation per rule, each must fail with its message --------
# expect_failure <case-name> <message-fragment>: the gate must fail on the
# temp tree as it stands, with that message.
expect_failure() {
    local name=$1 fragment=$2
    run_script
    if [ "$status" -eq 0 ]; then
        err "$name: seeded violation was NOT caught"
    elif ! echo "$out" | grep -qF -- "$fragment"; then
        err "$name: failed, but without the expected message '$fragment':"
        echo "$out" >&2
    fi
}

# expect_reject <case-name> <violation-file> <message-fragment> <<'EOF' ... EOF
expect_reject() {
    local name=$1 file=$2 fragment=$3
    mkdir -p "$tmp/$(dirname "$file")"
    cat > "$tmp/$file"
    expect_failure "$name" "$fragment"
    rm -f "$tmp/$file"
}

# expect_accept <case-name> <file> <<'EOF' ... EOF — the gate must stay green.
expect_accept() {
    local name=$1 file=$2
    mkdir -p "$tmp/$(dirname "$file")"
    cat > "$tmp/$file"
    run_script
    if [ "$status" -ne 0 ]; then
        err "$name: benign file $file was rejected:"; echo "$out" >&2
    fi
    rm -f "$tmp/$file"
}

expect_reject "units-lint" "src/core/src/bad_units.cpp" \
    "bare-double power/SNR parameter" <<'EOF'
namespace sag::core {
double scale(double tx_power, double factor) { return tx_power * factor; }
}  // namespace sag::core
EOF

expect_reject "entity-index-lint" "src/core/include/sag/core/bad_ids.h" \
    "raw size_t entity-index parameter" <<'EOF'
#pragma once
#include <cstddef>
namespace sag::core {
void move_relay(std::size_t rs_idx);
}  // namespace sag::core
EOF

expect_reject "gain-lint" "src/opt/src/bad_gain.cpp" \
    "bare-double path-gain parameter" <<'EOF'
namespace sag::opt {
double attenuate(double path_gain) { return path_gain * 0.5; }
}  // namespace sag::opt
EOF

expect_reject "determinism-lint-entropy" "src/sim/src/bad_entropy.cpp" \
    "nondeterminism source" <<'EOF'
#include <random>
namespace sag::sim {
unsigned roll() {
    std::random_device rd;
    std::mt19937 gen;
    return gen() ^ rd();
}
}  // namespace sag::sim
EOF

expect_reject "determinism-lint-unordered" "src/opt/src/bad_unordered.cpp" \
    "unordered container(s) in src/" <<'EOF'
#include <unordered_map>
#include <vector>
namespace sag::opt {
std::vector<int> chosen_order(const std::unordered_map<int, int>& scores) {
    std::vector<int> out;
    for (const auto& [k, v] : scores) out.push_back(k);
    return out;
}
}  // namespace sag::opt
EOF

# Outside the solver layers too: a hash-bucket neighbour index in
# src/geometry is rejected like one in src/core.
expect_reject "determinism-lint-unordered-geometry" "src/geometry/src/bad_cells.cpp" \
    "unordered container(s) in src/" <<'EOF'
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>
namespace sag::geom {
std::unordered_map<std::int64_t, std::vector<std::size_t>> g_cells;
}  // namespace sag::geom
EOF

expect_reject "concurrency-confinement-lint" "src/sim/src/bad_thread.cpp" \
    "raw threading primitive(s) outside src/exec/" <<'EOF'
#include <mutex>
namespace sag::sim {
std::mutex g_lock;
void touch() { const std::lock_guard<std::mutex> lock(g_lock); }
}  // namespace sag::sim
EOF

# The confinement lint must NOT fire on src/exec/ itself.
expect_accept "exec-exemption" "src/exec/src/pool_ok.cpp" <<'EOF'
#include <mutex>
#include <thread>
namespace sag::exec {
std::mutex g_ok;
}  // namespace sag::exec
EOF

# Nor on the banned names quoted in a comment or a string.
expect_accept "det-conc-comment-string-immunity" "src/sim/src/quoted.cpp" <<'EOF'
// Never std::mutex or std::random_device here: route through sag::exec.
namespace sag::sim {
const char* why() { return "std::mutex and std::random_device are banned"; }
}  // namespace sag::sim
EOF

# A digit separator is part of a number, not the start of a char
# literal: code after `1'000` is still linted.
expect_reject "units-lint-after-digit-separator" "src/core/src/bad_sep.cpp" \
    "bare-double power/SNR parameter" <<'EOF'
namespace sag::core {
constexpr int kBudget = 1'000;
double scale(double tx_power, double factor) { return tx_power * factor; }
}  // namespace sag::core
EOF

expect_reject "concurrency-lint-after-digit-separator" \
    "src/sim/src/bad_sep_thread.cpp" \
    "raw threading primitive(s) outside src/exec/" <<'EOF'
namespace sag::sim {
constexpr long kEvents = 1'000;
std::mutex g_lock;
}  // namespace sag::sim
EOF

# --- aliases, comment immunity, raw-escape, layering, suppressions ---------
# A typedef cannot rename `double` past the units rule: the token
# engine resolves project-wide aliases before matching. The old grep
# lint was blind to exactly this.
expect_reject "units-lint-typedef" "src/core/src/bad_alias.cpp" \
    "bare-double power/SNR parameter" <<'EOF'
namespace sag::core {
using level_t = double;
double scale(level_t rx_power) { return rx_power * 2.0; }
}  // namespace sag::core
EOF

# Same for an aliased size_t entity index in a solver header.
expect_reject "entity-index-lint-alias" \
    "src/core/include/sag/core/bad_ids_alias.h" \
    "raw size_t entity-index parameter" <<'EOF'
#pragma once
#include <cstddef>
namespace sag::core {
typedef std::size_t slot_t;
void move_relay(slot_t rs_idx);
}  // namespace sag::core
EOF

# A signature quoted in a comment or a string is not a violation:
# the token engine strips both before matching (the classic grep
# false positive, inverted into an accept case).
expect_accept "comment-string-immunity" "src/core/src/quoted.cpp" <<'EOF'
// Documented anti-pattern: double scale(double tx_power, double snr);
namespace sag::core {
const char* usage() { return "usage: scale(double tx_power)"; }
}  // namespace sag::core
EOF

# An unjustified strong-type escape hatch fails ...
expect_reject "raw-escape-lint" "src/core/src/bad_raw.cpp" \
    "unjustified strong-type escape hatch" <<'EOF'
namespace sag::core {
template <typename V>
double first(const V& powers) { return powers.raw()[0]; }
}  // namespace sag::core
EOF

# ... and the same call with a SAG_RAW_OK justification passes.
expect_accept "raw-escape-justified" "src/core/src/ok_raw.cpp" <<'EOF'
namespace sag::core {
template <typename V>
double first(const V& powers) {
// SAG_RAW_OK: serialization boundary, bulk column handed to io.
return powers.raw()[0];
}
}  // namespace sag::core
EOF

# An include edge the manifest does not declare is illegal.
expect_reject "layering-illegal-edge" "src/opt/src/bad_edge.cpp" \
    "illegal include edge" <<'EOF'
#include "sag/core/clean.h"
namespace sag::opt {}
EOF

# A commented-out include is NOT an edge.
expect_accept "layering-comment-immunity" "src/opt/src/ok_edge.cpp" <<'EOF'
// #include "sag/core/clean.h"
namespace sag::opt {}
EOF

# A declared edge no include exercises is dead: the manifest can
# never drift looser than the code.
sed 's/"core": { "deps": \[\] }/"core": { "deps": ["opt"] }/' \
    "$tmp/tools/layering.json" > "$tmp/tools/layering.json.tmp"
mv "$tmp/tools/layering.json.tmp" "$tmp/tools/layering.json"
expect_failure "layering-dead-edge" "dead layering edge"
sed 's/"core": { "deps": \["opt"\] }/"core": { "deps": [] }/' \
    "$tmp/tools/layering.json" > "$tmp/tools/layering.json.tmp"
mv "$tmp/tools/layering.json.tmp" "$tmp/tools/layering.json"

# DESIGN.md's layering block must list exactly the manifest's lines.
cp "$tmp/DESIGN.md" "$tmp/DESIGN.md.orig"
sed 's/^sim ->$/sim -> core/' "$tmp/DESIGN.md.orig" > "$tmp/DESIGN.md"
expect_failure "layering-design-drift" "layering block drifts from"
mv "$tmp/DESIGN.md.orig" "$tmp/DESIGN.md"

# An allowlist entry that matches nothing is dead and fails the gate.
echo "units-param: src/core/src/no_such_file.cpp" \
    >> "$tmp/tools/check_static_allowlist.txt"
expect_failure "dead-suppression" "dead allowlist entry"
reset_allowlist

# An entry that names no rule is a format error.
echo "src/core/src/whatever.cpp" >> "$tmp/tools/check_static_allowlist.txt"
expect_failure "suppression-format" "must name the rule"
reset_allowlist

# --- allowlist mechanics: an allowlisted violation passes ------------------
cat > "$tmp/src/sim/src/allowlisted.cpp" <<'EOF'
#include <mutex>
namespace sag::sim { std::mutex g_special; }
EOF
# Whole-file exemption: the rule-named path fragment matches every hit
# in the file.
echo "conc-raw: src/sim/src/allowlisted.cpp" \
    >> "$tmp/tools/check_static_allowlist.txt"
run_script
if [ "$status" -ne 0 ]; then
    err "allowlisted confinement hit should pass, got exit $status:"
    echo "$out" >&2
fi
rm -f "$tmp/src/sim/src/allowlisted.cpp"

# Once the file it excused is gone, the same entry is dead and fails.
expect_failure "dead-conc-raw-entry" "dead allowlist entry"
reset_allowlist

# --- dead-api: a public-header function needs a non-test caller ------------
# seed_header <<'EOF' ... EOF writes the probe header the cases share.
seed_header() {
    cat > "$tmp/src/core/include/sag/core/probe.h"
}
seed_header <<'EOF'
#pragma once
namespace sag::core {
int probe_count(int n);
}  // namespace sag::core
EOF

expect_reject "dead-api-test-only-caller" "tests/probe_test.cpp" \
    '`probe_count` has no caller' <<'EOF'
#include "sag/core/probe.h"
int use_probe() { return sag::core::probe_count(3); }
EOF

expect_accept "dead-api-bench-caller" "bench/probe_bench.cpp" <<'EOF'
#include "sag/core/probe.h"
int main() { return sag::core::probe_count(3); }
EOF

# perfbench/ is read as a caller, never linted.
expect_accept "dead-api-perfbench-only-caller" "perfbench/probe_bench.cpp" <<'EOF'
#include "sag/core/probe.h"
int main() { return sag::core::probe_count(3); }
EOF

expect_reject "dead-api-comment-string-only" "src/core/src/probe_doc.cpp" \
    '`probe_count` has no caller' <<'EOF'
// probe_count(3) is what a bench would call.
namespace sag::core {
const char* probe_usage() { return "probe_count(n)"; }
}  // namespace sag::core
EOF

# An out-of-line definition, free or member, is not a reference.
seed_header <<'EOF'
#pragma once
namespace sag::core {
int probe_count(int n);
struct Probe {
    int twice(int n) const;
};
}  // namespace sag::core
EOF
expect_reject "dead-api-own-definition-only" "src/core/src/probe.cpp" \
    '`probe_count` has no caller' <<'EOF'
#include "sag/core/probe.h"
namespace sag::core {
int probe_count(int n) { return n + 1; }
}  // namespace sag::core
EOF
expect_reject "dead-api-own-member-definition-only" "src/core/src/probe.cpp" \
    '`twice` has no caller' <<'EOF'
#include "sag/core/probe.h"
namespace sag::core {
int Probe::twice(int n) const { return 2 * n; }
}  // namespace sag::core
EOF

# An inline function called by another inline function of its header
# is alive while that caller is.
seed_header <<'EOF'
#pragma once
namespace sag::core {
inline int probe_base(int n) { return 2 * n; }
inline int probe_count(int n) { return probe_base(n) + 1; }
}  // namespace sag::core
EOF
expect_accept "dead-api-inline-same-header-caller" "bench/probe_bench.cpp" <<'EOF'
#include "sag/core/probe.h"
int main() { return sag::core::probe_count(3); }
EOF

# Only a call-shaped occurrence is a reference: a same-named variable
# keeps a member function no more alive than a comment does...
seed_header <<'EOF'
#pragma once
namespace sag::core {
struct Probe {
    int depth() const;
};
}  // namespace sag::core
EOF
expect_reject "dead-api-same-named-variable-only" "bench/probe_bench.cpp" \
    '`depth` has no caller' <<'EOF'
#include "sag/core/probe.h"
int main() {
    const int depth = 3;
    return depth;
}
EOF

# ...while a function passed by qualified name, never called, is used.
seed_header <<'EOF'
#pragma once
namespace sag::core {
int probe_scale(int n);
}  // namespace sag::core
EOF
expect_accept "dead-api-passed-by-qualified-name" "bench/probe_bench.cpp" <<'EOF'
#include "sag/core/probe.h"
int apply(int (*f)(int), int n) { return f(n); }
int main() { return apply(sag::core::probe_scale, 3); }
EOF

# An allowlisted test oracle passes; once it is deleted (expect_accept
# removes the header again), its entry is dead and fails.
echo "dead-api: int probe_oracle(" >> "$tmp/tools/check_static_allowlist.txt"
expect_accept "dead-api-allowlisted-oracle" \
    "src/core/include/sag/core/probe.h" <<'EOF'
#pragma once
namespace sag::core {
int probe_oracle(int n);
}  // namespace sag::core
EOF
expect_failure "dead-api-entry-of-deleted-function" "dead allowlist entry"
reset_allowlist

# --- doc-names: backticked module-qualified names name code ----------------
expect_accept "doc-names-real" "README.md" <<'EOF'
Call `sag::core::clean_helper` or `core::clean_helper(n)`.
EOF

expect_reject "doc-names-stale" "README.md" \
    '`solve_everything` is not an identifier' <<'EOF'
Call `core::solve_everything` first.
EOF

# --- degradation policy: missing compile DB is fatal under CI --------------
out=$( cd "$tmp" && env CI=true bash tools/check_static.sh no-such-build-dir 2>&1 )
if [ $? -eq 0 ]; then
    err "CI=true with no compilation database must fail (silent degradation):"
    echo "$out" >&2
fi
out=$( cd "$tmp" && env -u CI bash tools/check_static.sh --strict no-such-build-dir 2>&1 )
if [ $? -eq 0 ]; then
    err "--strict with no compilation database must fail:"
    echo "$out" >&2
fi

# --- the real layering manifest is load-bearing ----------------------------
# Deleting any module from tools/layering.json must fail the real tree:
# its files become undeclared and every include of it an unknown module.
# DESIGN.md then drifts too, so the include-graph message is asserted.
sed '/"wireless": {/d' tools/layering.json > "$tmp/mutated_layering.json"
mut_out=$(python3 tools/sag_lint --build-dir no-such-build-dir \
              --layering "$tmp/mutated_layering.json" 2>&1)
if ! echo "$mut_out" | grep -qF "src/wireless/ is not a declared module"; then
    err "real tree passed with module 'wireless' deleted from the manifest:"
    echo "$mut_out" >&2
fi
# And so must deleting a single dep edge (core -> wireless).
sed 's/"graph", "ids", "obs", "opt", "units", "wireless"/"graph", "ids", "obs", "opt", "units"/' \
    tools/layering.json > "$tmp/mutated_layering.json"
mut_out=$(python3 tools/sag_lint --build-dir no-such-build-dir \
              --layering "$tmp/mutated_layering.json" 2>&1)
if ! echo "$mut_out" | grep -qF 'illegal include edge: module `core` -> `wireless`'; then
    err "real tree passed with edge core->wireless deleted from the manifest:"
    echo "$mut_out" >&2
fi

# --- the real tree passes (lint-only mode) ---------------------------------
real_out=$(env -u CI bash "$repo_root/tools/check_static.sh" no-such-build-dir 2>&1)
if [ $? -ne 0 ]; then
    err "the real repository tree fails the lints:"; echo "$real_out" >&2
fi

if [ "$fail" -ne 0 ]; then
    echo "check_static_selftest: FAILED" >&2
    exit 1
fi
echo "check_static_selftest: OK (param/raw-escape/layering/determinism/" \
     "concurrency/dead-api/doc-names rules reject seeded violations, dead" \
     "suppressions, dead manifest edges and DESIGN.md drift fail, clean" \
     "trees pass)"
