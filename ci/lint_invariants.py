#!/usr/bin/env python3
"""Repo-invariant linter for opmsim.

Enforces cross-file contracts that neither the compiler nor clang-tidy can
see — the places where PR review has historically had to catch "you added
the enum but forgot the wire case" by hand.  Run from anywhere:

    python3 ci/lint_invariants.py [--repo PATH]

Exits 0 when every invariant holds, 1 with one line per violation
otherwise.  The rules (see docs/static_analysis.md for the rationale):

  error-code-wire       every ErrorCode enumerator has a name-switch case,
                        a docs/robustness.md row, and the wire decode bound
                        names the LAST enumerator.
  diagnostics-append    Diagnostics fields only append: the committed
                        manifest (ci/diagnostics_fields.txt) must be an
                        exact ordered prefix of Diagnostics::fields(), the
                        table the wire codec folds over.
  runcontrol-sweeps     every solver sweep file consults RunControl (or
                        delegates to a PencilSolve that does).
  fields-table          every member of a wire-visible struct is in its
                        fields() table, which equality and the wire codecs
                        fold over (explicit allowlist for members that
                        deliberately stay process-local).
  naked-throw           src/ does not throw raw std::runtime_error /
                        std::logic_error outside the status/check taxonomy.
  fault-sites-armed     every fault::Site enumerator is armed by at least
                        one test, so the injection points cannot rot.

Parsing is regex-over-comment-stripped-source on purpose: the linter must
run on a bare python3 with no compile step, and the shapes it matches are
the repo's own stable idioms.  If a rule misfires after a legitimate
refactor, fix the rule (or extend an allowlist with a justification) in
the same PR — tests/test_lint_invariants.py proves each rule still fires
on a synthetic violation.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Allowlists.  Every entry carries its justification; additions require one.
# --------------------------------------------------------------------------

# Wire-visible structs: every member must be in the struct's fields() table
# (src/util/fields.hpp), so equality and the wire codecs cannot miss it.
WIRE_STRUCTS = [
    ("src/opm/solver.hpp", "OpmOptions"),
    ("src/opm/multiterm.hpp", "MultiTermOptions"),
    ("src/opm/adaptive.hpp", "AdaptiveOptions"),
    ("src/transient/steppers.hpp", "TransientOptions"),
    ("src/transient/grunwald.hpp", "GrunwaldOptions"),
    ("src/opm/diagnostics.hpp", "Diagnostics"),
    ("src/svc/wire.hpp", "ServiceStats"),
]

# Members left out of fields() on purpose ("member" in any struct, or
# "Struct::member").
FIELDS_TABLE_ALLOWLIST = {
    # Engine-injected per-system cache bundle: a process-local pointer.
    "caches",
    # Engine-injected deadline/cancel token: a process-local pointer.
    "control",
    # Never travels (the daemon's caches supply the analysis); compared
    # explicitly by options_equal in src/api/registry.cpp.
    "TransientOptions::symbolic",
}

# Files allowed to throw raw std:: exceptions: the taxonomy roots.
NAKED_THROW_ALLOWLIST = {
    # OPMSIM_CHECK/OPMSIM_REQUIRE funnel here and attach file:line context.
    "util/check.hpp",
    # solver_error and the classify() boundary own the ErrorCode taxonomy.
    "util/status.hpp",
}

# Solver sweep translation units: every one must consult the cooperative
# RunControl (deadline/cancel) machinery, directly or via PencilSolve.
SWEEP_FILES = [
    "opm/solver.cpp",
    "opm/multiterm.cpp",
    "opm/adaptive.cpp",
    "transient/steppers.cpp",
    "transient/grunwald.cpp",
]

RUNCONTROL_RE = re.compile(r"\b(RunControl|check_run_control|PencilSolve)\b")

# --------------------------------------------------------------------------
# Small parsing helpers
# --------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments (keeps line structure for // only)."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def read(repo: pathlib.Path, rel: str) -> str:
    return (repo / rel).read_text(encoding="utf-8")


def enum_body(text: str, enum_name: str) -> str:
    m = re.search(r"enum\s+class\s+" + enum_name + r"\b[^{]*\{(.*?)\}",
                  strip_comments(text), flags=re.DOTALL)
    if m is None:
        raise ValueError(f"enum class {enum_name} not found")
    return m.group(1)


def enum_values(text: str, enum_name: str) -> list[str]:
    names = []
    for part in enum_body(text, enum_name).split(","):
        m = re.match(r"\s*([A-Za-z_]\w*)", part)
        if m:
            names.append(m.group(1))
    return names


def function_body(text: str, signature_re: str) -> str:
    """Return the brace-matched body of the first function whose signature
    matches signature_re (which must match up to, not including, '{')."""
    clean = strip_comments(text)
    m = re.search(signature_re, clean)
    if m is None:
        raise ValueError(f"signature not found: {signature_re}")
    i = clean.index("{", m.end())
    depth = 0
    for j in range(i, len(clean)):
        if clean[j] == "{":
            depth += 1
        elif clean[j] == "}":
            depth -= 1
            if depth == 0:
                return clean[i:j + 1]
    raise ValueError(f"unbalanced braces after: {signature_re}")


def struct_body(text: str, struct_name: str) -> str:
    """The brace-matched body of `struct struct_name`, comments stripped."""
    clean = strip_comments(text)
    m = re.search(r"struct\s+" + struct_name + r"\b[^{;]*\{", clean)
    if m is None:
        raise ValueError(f"struct {struct_name} not found")
    i = m.end() - 1
    depth = 0
    for j in range(i, len(clean)):
        if clean[j] == "{":
            depth += 1
        elif clean[j] == "}":
            depth -= 1
            if depth == 0:
                return clean[i + 1:j]
    raise ValueError(f"unbalanced braces in struct {struct_name}")


def struct_fields(text: str, struct_name: str) -> list[str]:
    """Non-static data members of a struct, in declaration order."""
    body = struct_body(text, struct_name)
    # Collapse nested brace blocks (function bodies, brace initializers)
    # so only top-level declarations remain.
    while True:
        flat = re.sub(r"\{[^{}]*\}", "@", body)
        if flat == body:
            break
        body = flat
    fields = []
    # One declaration per ';' or collapsed function body.
    for decl in re.split(r"[;@]", body):
        decl = decl.strip()
        if not decl or "(" in decl or re.match(r"(static|using|enum|struct|"
                                               r"friend|template)\b", decl):
            continue
        m = re.match(r"[\w:<>,\s*&]+?[\s&*]([A-Za-z_]\w*)\s*(=.*)?$", decl,
                     flags=re.DOTALL)
        if m:
            fields.append(m.group(1))
    return fields


def fields_table(text: str, struct_name: str) -> list[str]:
    """Member names listed by `struct_name::fields()`, in table order."""
    body = struct_body(text, struct_name)
    m = re.search(r"\bfields\s*\(\s*\)", body)
    if m is None:
        raise ValueError(f"{struct_name}::fields() not found")
    return re.findall(r"&\s*" + struct_name + r"::(\w+)", body[m.end():])


# --------------------------------------------------------------------------
# Rules.  Each returns a list of "rule-name: message" strings.
# --------------------------------------------------------------------------


def rule_error_code_wire(repo: pathlib.Path) -> list[str]:
    out = []
    status = read(repo, "src/util/status.hpp")
    codes = enum_values(status, "ErrorCode")
    if not codes:
        return ["error-code-wire: failed to parse ErrorCode enumerators"]

    name_switch = function_body(
        status, r"error_code_name\s*\(\s*ErrorCode\s+\w+\s*\)")
    docs = read(repo, "docs/robustness.md")
    for code in codes:
        if f"ErrorCode::{code}" not in name_switch:
            out.append(f"error-code-wire: ErrorCode::{code} has no "
                       f"error_code_name() case in src/util/status.hpp")
        if code != "ok" and f"`{code}`" not in docs:
            out.append(f"error-code-wire: ErrorCode::{code} has no "
                       f"`{code}` row in docs/robustness.md")

    wire = strip_comments(read(repo, "src/svc/wire.cpp"))
    m = re.search(r'checked_enum\s*\(\s*r\s*,\s*ErrorCode::(\w+)\s*,\s*"error code"',
                  wire)
    if m is None:
        out.append("error-code-wire: decode_status() range check "
                   "(checked_enum ErrorCode bound) not found in src/svc/wire.cpp")
    elif m.group(1) != codes[-1]:
        out.append(f"error-code-wire: decode_status() bounds the wire range at "
                   f"ErrorCode::{m.group(1)} but the last enumerator is "
                   f"ErrorCode::{codes[-1]} — new codes would be rejected as "
                   f"malformed frames")
    return out


def rule_diagnostics_append(repo: pathlib.Path) -> list[str]:
    out = []
    fields = fields_table(read(repo, "src/opm/diagnostics.hpp"), "Diagnostics")
    if not fields:
        return ["diagnostics-append: failed to parse Diagnostics::fields()"]

    manifest_path = repo / "ci/diagnostics_fields.txt"
    manifest = [ln.strip() for ln in manifest_path.read_text().splitlines()
                if ln.strip() and not ln.lstrip().startswith("#")]

    # The manifest must be an exact ordered prefix of the wire order:
    # removals, renames, reorders and mid-table insertions all break old
    # wire decoders.
    for i, name in enumerate(manifest):
        if i >= len(fields) or fields[i] != name:
            found = fields[i] if i < len(fields) else "<missing>"
            out.append(f"diagnostics-append: Diagnostics::fields() entry #{i} "
                       f"is '{found}' but the committed manifest says "
                       f"'{name}' — fields may only be APPENDED (wire "
                       f"compat); never remove, rename or reorder")
            break
    else:
        for name in fields[len(manifest):]:
            out.append(f"diagnostics-append: new Diagnostics field '{name}' is "
                       f"not in ci/diagnostics_fields.txt — append it to the "
                       f"manifest in the same change")
    return out


def rule_runcontrol_sweeps(repo: pathlib.Path) -> list[str]:
    out = []
    for rel in SWEEP_FILES:
        clean = strip_comments(read(repo, "src/" + rel))
        if not RUNCONTROL_RE.search(clean):
            out.append(f"runcontrol-sweeps: src/{rel} never consults RunControl "
                       f"(no RunControl/check_run_control/PencilSolve use) — "
                       f"its sweep cannot be deadlined or cancelled")
    return out


def rule_fields_table(repo: pathlib.Path) -> list[str]:
    out = []
    for rel, struct in WIRE_STRUCTS:
        text = read(repo, rel)
        table = set(fields_table(text, struct))
        for name in struct_fields(text, struct):
            if (name in table or name in FIELDS_TABLE_ALLOWLIST
                    or f"{struct}::{name}" in FIELDS_TABLE_ALLOWLIST):
                continue
            out.append(f"fields-table: {struct}::{name} ({rel}) is not in "
                       f"{struct}::fields() — equality and the wire codec "
                       f"would skip it; append it to the table")
    return out


NAKED_THROW_RE = re.compile(r"\bthrow\s+std::(runtime_error|logic_error)\b")


def rule_naked_throw(repo: pathlib.Path) -> list[str]:
    out = []
    for path in sorted((repo / "src").rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(repo / "src").as_posix()
        if rel in NAKED_THROW_ALLOWLIST:
            continue
        clean = strip_comments(path.read_text(encoding="utf-8"))
        for m in NAKED_THROW_RE.finditer(clean):
            line = clean.count("\n", 0, m.start()) + 1
            out.append(f"naked-throw: src/{rel}:{line} throws raw "
                       f"std::{m.group(1)} — use the util/status.hpp taxonomy "
                       f"(solver_error) or util/check.hpp so the Engine "
                       f"boundary can classify it")
    return out


def rule_fault_sites_armed(repo: pathlib.Path) -> list[str]:
    out = []
    sites = [s for s in enum_values(read(repo, "src/util/fault_inject.hpp"),
                                    "Site")
             if s != "site_count_"]
    if not sites:
        return ["fault-sites-armed: failed to parse fault::Site enumerators"]
    tests = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((repo / "tests").glob("*.cpp")))
    for site in sites:
        if f"Site::{site}" not in tests:
            out.append(f"fault-sites-armed: fault::Site::{site} is never armed "
                       f"by any test in tests/*.cpp — the injection point can "
                       f"silently rot")
    return out


RULES = [
    rule_error_code_wire,
    rule_diagnostics_append,
    rule_runcontrol_sweeps,
    rule_fields_table,
    rule_naked_throw,
    rule_fault_sites_armed,
]


def run(repo: pathlib.Path) -> list[str]:
    findings = []
    for rule in RULES:
        try:
            findings.extend(rule(repo))
        except (OSError, ValueError) as e:
            name = rule.__name__.removeprefix("rule_").replace("_", "-")
            findings.append(f"{name}: linter could not parse its inputs: {e}")
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=".",
                    help="repository root (default: current directory)")
    args = ap.parse_args()
    repo = pathlib.Path(args.repo).resolve()
    if not (repo / "src/util/status.hpp").is_file():
        print(f"lint_invariants: {repo} does not look like the opmsim root",
              file=sys.stderr)
        return 2
    findings = run(repo)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: all {len(RULES)} invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
