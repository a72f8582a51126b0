#!/usr/bin/env bash
# Self-test for the tools/check_static.sh static gate, registered as the
# `check_static_selftest` ctest case.
#
# A lint that never fires is indistinguishable from a lint that works, so
# this harness proves each rule both accepts and rejects: it copies the
# script, the sag_lint engine, and the allowlists into a temp tree with
# its own mini layering manifest, seeds exactly one violation per rule,
# and asserts the gate fails with that rule's message — then asserts it
# passes on the clean temp tree AND on the real repository. Covered:
#
#   * units-param / ids-param / gain-param — plain violations, plus the
#     evasions a grep lint could not see: a typedef'd/using-aliased
#     type name, and (as accepts) signatures quoted in comments/strings;
#   * raw-escape — an unjustified .raw() fails, a `// SAG_RAW_OK:` one
#     passes;
#   * layering — an undeclared include edge fails, a declared-but-unused
#     manifest edge (dead edge) fails, and deleting a module from the
#     REAL tools/layering.json makes the real tree fail (every manifest
#     entry is load-bearing);
#   * dead-suppression — an allowlist entry that matches nothing fails,
#     and so does an entry without a `rule-id:` prefix;
#   * det-entropy / det-unordered / conc-raw — the grep lints, their
#     src/exec exemption, and rule-named allowlist mechanics;
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

# sag_lint is check_static.sh's only engine for the param, raw-escape,
# and layering rules, so the gate (and this harness) needs python3.
if ! command -v python3 >/dev/null 2>&1; then
    echo "check_static_selftest: python3 not found; check_static.sh requires it" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Minimal clean tree: the script cds to its own parent, so tools/ must
# hold the script, the sag_lint engine, the layering manifest, and the
# allowlists with their repo-relative names.
mkdir -p "$tmp/tools" "$tmp/src/core/include/sag/core" "$tmp/src/core/src" \
         "$tmp/src/opt/src" "$tmp/src/sim/src" "$tmp/src/exec/src"
cp tools/check_static.sh "$tmp/tools/"
cp -r tools/sag_lint "$tmp/tools/"
cp tools/check_static_allowlist.txt tools/check_determinism_allowlist.txt \
   tools/check_concurrency_allowlist.txt "$tmp/tools/"
# The temp tree gets its own manifest (the real one's modules don't
# exist here, and its edges would all be dead). No deps: every declared
# cross-module include in a seeded file is an illegal edge.
cat > "$tmp/tools/layering.json" <<'EOF'
{
  "modules": {
    "core": { "deps": [] },
    "opt": { "deps": [] },
    "sim": { "deps": [] },
    "exec": { "deps": [] }
  },
  "apex": ["tools"]
}
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
# expect_reject <case-name> <violation-file> <message-fragment> <<'EOF' ... EOF
expect_reject() {
    local name=$1 file=$2 fragment=$3
    mkdir -p "$tmp/$(dirname "$file")"
    cat > "$tmp/$file"
    run_script
    if [ "$status" -eq 0 ]; then
        err "$name: seeded violation in $file was NOT caught"
    elif ! echo "$out" | grep -qF "$fragment"; then
        err "$name: failed, but without the expected message '$fragment':"
        echo "$out" >&2
    fi
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
    "unordered container(s) in solver result-construction paths" <<'EOF'
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
run_script
if [ "$status" -eq 0 ]; then
    err "layering-dead-edge: unused manifest edge core->opt NOT caught"
elif ! echo "$out" | grep -qF "dead layering edge"; then
    err "layering-dead-edge: failed without 'dead layering edge':"
    echo "$out" >&2
fi
sed 's/"core": { "deps": \["opt"\] }/"core": { "deps": [] }/' \
    "$tmp/tools/layering.json" > "$tmp/tools/layering.json.tmp"
mv "$tmp/tools/layering.json.tmp" "$tmp/tools/layering.json"

# An allowlist entry that matches nothing is dead and fails the gate.
echo "units-param: src/core/src/no_such_file.cpp" \
    >> "$tmp/tools/check_static_allowlist.txt"
run_script
if [ "$status" -eq 0 ]; then
    err "dead-suppression: stale allowlist entry NOT caught"
elif ! echo "$out" | grep -qF "dead allowlist entry"; then
    err "dead-suppression: failed without 'dead allowlist entry':"
    echo "$out" >&2
fi
cp tools/check_static_allowlist.txt "$tmp/tools/"

# An entry that names no rule is a format error.
echo "src/core/src/whatever.cpp" >> "$tmp/tools/check_static_allowlist.txt"
run_script
if [ "$status" -eq 0 ]; then
    err "suppression-format: rule-less allowlist entry NOT caught"
elif ! echo "$out" | grep -qF "must name the rule"; then
    err "suppression-format: failed without 'must name the rule':"
    echo "$out" >&2
fi
cp tools/check_static_allowlist.txt "$tmp/tools/"

# --- allowlist mechanics: an allowlisted violation passes ------------------
cat > "$tmp/src/sim/src/allowlisted.cpp" <<'EOF'
#include <mutex>
namespace sag::sim { std::mutex g_special; }
EOF
# Whole-file exemption: the rule-named path fragment matches every hit
# in the file.
echo "conc-raw: src/sim/src/allowlisted.cpp" \
    >> "$tmp/tools/check_concurrency_allowlist.txt"
run_script
if [ "$status" -ne 0 ]; then
    err "allowlisted confinement hit should pass, got exit $status:"
    echo "$out" >&2
fi
rm -f "$tmp/src/sim/src/allowlisted.cpp"
cp tools/check_concurrency_allowlist.txt "$tmp/tools/"

# A dead entry in a grep-lint allowlist (the file it excused is gone)
# fails too — the shell validates those itself.
echo "conc-raw: src/sim/src/long_gone.cpp" \
    >> "$tmp/tools/check_concurrency_allowlist.txt"
run_script
if [ "$status" -eq 0 ]; then
    err "grep-lint dead allowlist entry NOT caught"
elif ! echo "$out" | grep -qF "dead allowlist entry"; then
    err "grep-lint dead entry failed without 'dead allowlist entry':"
    echo "$out" >&2
fi
cp tools/check_concurrency_allowlist.txt "$tmp/tools/"

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
sed '/"wireless": {/d' tools/layering.json > "$tmp/mutated_layering.json"
mut_out=$(python3 tools/sag_lint --build-dir no-such-build-dir \
              --layering "$tmp/mutated_layering.json" 2>&1)
if [ $? -eq 0 ]; then
    err "real tree passed with module 'wireless' deleted from the manifest:"
    echo "$mut_out" >&2
fi
# And so must deleting a single dep edge (core -> wireless).
sed 's/"graph", "ids", "obs", "opt", "units", "wireless"/"graph", "ids", "obs", "opt", "units"/' \
    tools/layering.json > "$tmp/mutated_layering.json"
mut_out=$(python3 tools/sag_lint --build-dir no-such-build-dir \
              --layering "$tmp/mutated_layering.json" 2>&1)
if [ $? -eq 0 ]; then
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
     "concurrency rules reject seeded violations, dead suppressions and" \
     "dead manifest edges fail, clean trees pass)"
