#!/usr/bin/env python3
"""Self-test for ci/lint_invariants.py: prove every rule actually fires.

A linter that silently stops matching (because a refactor moved the shape
it greps for) is worse than no linter — it keeps reporting green.  This
test copies the real tree into a scratch directory, injects ONE synthetic
violation per rule, and asserts the rule reports it; plus the control:
the pristine copy must pass.

Runs under plain python3 (no pytest):  python3 tests/test_lint_invariants.py
"""

from __future__ import annotations

import pathlib
import re
import shutil
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "ci"))

import lint_invariants  # noqa: E402  (needs the sys.path insert above)

# Only what the linter reads — keeps each scratch copy small.
LINT_INPUTS = sorted(
    {
        "src/util/status.hpp",
        "src/util/fault_inject.hpp",
        "src/api/registry.cpp",
        "src/svc/wire.cpp",
        "docs/robustness.md",
        "ci/diagnostics_fields.txt",
    }
    | {rel for rel, _ in lint_invariants.WIRE_STRUCTS}
    | {f"src/{rel}" for rel in lint_invariants.SWEEP_FILES}
    | {p.relative_to(REPO).as_posix() for p in (REPO / "tests").glob("*.cpp")}
)


def make_tree(tmp: pathlib.Path) -> pathlib.Path:
    root = tmp / "repo"
    for rel in LINT_INPUTS:
        dst = root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO / rel, dst)
    return root


def edit(root: pathlib.Path, rel: str, pattern: str, replacement: str) -> None:
    path = root / rel
    text = path.read_text(encoding="utf-8")
    new = re.sub(pattern, replacement, text, count=1)
    if new == text:
        raise AssertionError(f"self-test injection no-op: /{pattern}/ "
                             f"did not match in {rel}")
    path.write_text(new, encoding="utf-8")


failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {label}" + (f" — {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(label)


def expect_fires(label: str, rule_prefix: str,
                 inject, *, expect_substr: str = "") -> None:
    """Copy the tree, apply `inject(root)`, assert the rule reports it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = make_tree(pathlib.Path(tmp))
        inject(root)
        findings = lint_invariants.run(root)
        hits = [f for f in findings if f.startswith(rule_prefix)
                and expect_substr in f]
        others = [f for f in findings if not f.startswith(rule_prefix)]
        check(label, bool(hits),
              f"expected a '{rule_prefix}' finding"
              + (f" containing '{expect_substr}'" if expect_substr else "")
              + f"; got {findings!r}")
        # The injection must not shotgun unrelated rules (a noisy linter
        # trains people to ignore it).  diagnostics edits legitimately
        # cascade into their own rule only.
        check(f"{label} (no collateral findings)", not others,
              f"unrelated findings: {others!r}")


print("lint_invariants self-test")

# Control: the pristine tree passes.
with tempfile.TemporaryDirectory() as tmp:
    root = make_tree(pathlib.Path(tmp))
    findings = lint_invariants.run(root)
    check("pristine tree passes", not findings, repr(findings))

# Rule 1a: a new ErrorCode enumerator with no name case / docs row.
expect_fires(
    "error-code-wire fires on an undocumented enumerator",
    "error-code-wire",
    lambda root: edit(root, "src/util/status.hpp",
                      r"\binternal_error,", "internal_error,\n    solver_haunted,"),
    expect_substr="solver_haunted")

# Rule 1b: decode_status() bound left behind the last enumerator.
expect_fires(
    "error-code-wire fires on a stale wire decode bound",
    "error-code-wire",
    lambda root: edit(root, "src/svc/wire.cpp",
                      r'checked_enum\(r, ErrorCode::unavailable, "error code"',
                      'checked_enum(r, ErrorCode::cancelled, "error code"'),
    expect_substr="cancelled")

# Rule 2a: a field inserted MID-table (reorders the wire layout).
def insert_mid_table(root: pathlib.Path) -> None:
    edit(root, "src/opm/diagnostics.hpp", r"\n    int soe_fits = 0;",
         "\n    int soe_fits = 0;\n    int sneaky_insert = 0;")
    edit(root, "src/opm/diagnostics.hpp", r"&Diagnostics::sweep_seconds,",
         "&Diagnostics::sneaky_insert, &Diagnostics::sweep_seconds,")


expect_fires(
    "diagnostics-append fires on a mid-table insertion",
    "diagnostics-append",
    insert_mid_table,
    expect_substr="sneaky_insert")


# Rule 2b: a field appended to the struct and its table but not to the
# manifest.
def append_without_manifest(root: pathlib.Path) -> None:
    edit(root, "src/opm/diagnostics.hpp", r"\n    int soe_fits = 0;",
         "\n    int soe_fits = 0;\n    int orphan_field = 0;")
    edit(root, "src/opm/diagnostics.hpp", r"&Diagnostics::soe_fits\}",
         "&Diagnostics::soe_fits, &Diagnostics::orphan_field}")


expect_fires(
    "diagnostics-append fires on an append missing from the manifest",
    "diagnostics-append",
    append_without_manifest,
    expect_substr="orphan_field")

# Rule 3: a sweep file that stops consulting RunControl (every occurrence
# renamed, not just the first — one survivor would legitimately pass).
def drop_runcontrol(root: pathlib.Path) -> None:
    path = root / "src/transient/steppers.cpp"
    path.write_text(
        re.sub(r"\b(RunControl|check_run_control|PencilSolve)\b",
               "Uncontrolled", path.read_text(encoding="utf-8")),
        encoding="utf-8")


expect_fires(
    "runcontrol-sweeps fires when a sweep drops RunControl",
    "runcontrol-sweeps",
    drop_runcontrol,
    expect_substr="steppers.cpp")

# Rule 4: an options member missing from its fields() table (neither
# compared for batch grouping nor carried on the wire).
expect_fires(
    "fields-table fires on a member missing from its table",
    "fields-table",
    lambda root: edit(root, "src/transient/grunwald.hpp",
                      r"\n    la::Vectord x0;",
                      "\n    la::Vectord x0;\n    double ghost = 0.0;"),
    expect_substr="GrunwaldOptions::ghost")

# Rule 5: a naked std::runtime_error outside the taxonomy files.
expect_fires(
    "naked-throw fires on a raw runtime_error in src/",
    "naked-throw",
    lambda root: edit(root, "src/api/registry.cpp",
                      r"bool options_equal",
                      'inline void oops() { throw std::runtime_error("x"); }\n'
                      "bool options_equal"),
    expect_substr="registry.cpp")

# Rule 6: a fault site no test ever arms.
expect_fires(
    "fault-sites-armed fires on an unarmed Site enumerator",
    "fault-sites-armed",
    lambda root: edit(root, "src/util/fault_inject.hpp",
                      r"\n    site_count_,",
                      "\n    cosmic_ray,\n    site_count_,"),
    expect_substr="cosmic_ray")

if failures:
    print(f"self-test: {len(failures)} check(s) FAILED", file=sys.stderr)
    sys.exit(1)
print("self-test: every rule fires and the pristine tree passes")
