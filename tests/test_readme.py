"""The README's "Library use" block runs as written."""

import re
from pathlib import Path

import pytest

from helpers import DECAY_RATE_REF

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert scope["rates"].decay_rate == pytest.approx(DECAY_RATE_REF, rel=1e-9)
    assert 0.0 < scope["series"].flip_probability[-1] < 1.0
