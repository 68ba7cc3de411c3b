"""The source rules of ``scripts/check_source_rules.py`` hold on ``src/``,
and each rule flags a line planted against it, but not one it excuses."""
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_source_rules.py"
RULES = runpy.run_path(str(SCRIPT))


@pytest.mark.parametrize("rule", sorted(RULES["RULES"]))
def test_source_rule_holds(rule):
    assert RULES["flagged"](rule) == []


# rule: (file, planted line flagged), (file, planted line excused)
PLANTED = {
    "tolerances": (("channels.py", "EPS = 1e-7"), ("numkit.py", "EPS = 1e-7")),
    "verdicts": (("states.py", "ok = dev <= numkit.TOL"), ("gns.py", "keep = w > tol * lam_max")),
    "arrays": (("groupoid.py", "a = np.asarray(x)"), ("numkit.py", "a = np.asarray(x)")),
    "labels": (("estimation.py", "i = G.index[e]"), ("algebra.py", "i = G.index[e]")),
}


@pytest.mark.parametrize("rule", sorted(PLANTED))
def test_source_rule_flags_a_planted_line(tmp_path, rule):
    src = tmp_path / "src" / "cencov_ncp"
    src.mkdir(parents=True)
    (bad, line), (excused, ok) = PLANTED[rule]
    (src / bad).write_text(f'"""A module."""\n{line}\n')
    (src / excused).write_text(f"{ok}\n")
    assert RULES["flagged"](rule, tmp_path) == [f"src/cencov_ncp/{bad}:2:{line}"]


def test_command_line_exit_status(capsys):
    assert RULES["main"](["labels"]) == 0
    assert RULES["main"](["nope"]) == 2
    assert "unknown rule 'nope'" in capsys.readouterr().err
