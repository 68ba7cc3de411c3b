"""Check the source rules of ``src/cencov_ncp``: lines that no source file
may hold, outside each rule's exceptions.

    python scripts/check_source_rules.py [RULE ...]

The rules are ``tolerances``, ``verdicts``, ``arrays`` and ``labels``; with
no RULE every rule is checked.  Each flagged line is printed as grep prints
it, ``path:line:text`` with the path from the repository root, and the exit
status is 1 if any line is flagged.  Standard library only.
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = "src/cencov_ncp"
CORE = ("groupoid", "states", "channels", "gns", "estimation", "numkit")

# rule: its checks, each (files, pattern, exceptions): the files as globs from
# the root, the pattern a line may not match, and the patterns that excuse a
# flagged line, matched against its path:line:text
RULES = {
    # every tolerance is a named constant in numkit.py
    "tolerances": [((f"{SRC}/**/*.py",), r"[0-9]e-[0-9]", [r"/numkit\.py:"])],
    # no comparison against a *_TOL, P_FLOOR or tol name, and no tol * bound,
    # outside numkit.py: every verdict is a numkit.within call; the one
    # exception is the GNS rank cut tol * lam_max, a spectral split
    "verdicts": [(
        (f"{SRC}/*.py",),
        r"([<>]=?|[!=]=) *-? *([A-Za-z_]+\.)?([A-Z_]*TOL|P_FLOOR|tol)\b"
        r"|\b([A-Z_]*TOL|P_FLOOR|tol) *([<>]=?|[!=]=)|\btol \*",
        [r"^src/cencov_ncp/numkit\.py:", r"^src/cencov_ncp/gns\.py:[0-9]+:.*tol \* lam_max"],
    )],
    # no np.shape( or .reshape(-1) anywhere, and np.asarray( only in numkit.py
    "arrays": [((f"{SRC}/**/*.py",), r"np\.shape\(|\.reshape\(-1\)", []),
               ((f"{SRC}/**/*.py",), re.escape("np.asarray("), [r"/numkit\.py:"])],
    # the core looks no element or outcome up by label; algebra.py keeps its
    # two label-keyed constructors, element_from_dict and delta_element
    "labels": [(tuple(f"{SRC}/{name}.py" for name in CORE),
                r"\.index\[|outcome_index|fiber_ix", [])],
}


def flagged(rule: str, root: Path = ROOT) -> list[str]:
    """The lines under ``root`` that break ``rule``, as ``path:line:text``."""
    found = []
    for globs, pattern, exceptions in RULES[rule]:
        paths = sorted({p for g in globs for p in root.glob(g) if p.is_file()})
        for path in paths:
            text = path.read_text(encoding="utf-8", errors="replace")
            for n, line in enumerate(text.split("\n"), 1):
                hit = f"{path.relative_to(root).as_posix()}:{n}:{line}"
                if re.search(pattern, line) and not any(re.search(x, hit) for x in exceptions):
                    found.append(hit)
    return found


def main(argv: list[str]) -> int:
    unknown = [rule for rule in argv if rule not in RULES]
    if unknown:
        print(f"unknown rule {unknown[0]!r}; the rules are {', '.join(RULES)}", file=sys.stderr)
        return 2
    found = [hit for rule in argv or RULES for hit in flagged(rule)]
    print("".join(f"{hit}\n" for hit in found), end="")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
