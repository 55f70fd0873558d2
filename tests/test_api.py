import re
from pathlib import Path

import regretlab


def test_every_public_name_resolves():
    missing = [name for name in regretlab.__all__ if not hasattr(regretlab, name)]
    assert missing == []
    assert len(set(regretlab.__all__)) == len(regretlab.__all__)


def test_readme_quick_start_runs(capsys):
    # the one ```python block of README.md, run as written, so the names it uses stay public
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    expected, switch_round = lines[0].split()
    assert float(expected) >= 0 and int(switch_round) > 0
