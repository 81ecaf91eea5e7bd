"""The README's Library example runs against the package as it stands."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first python block of the README's Library section."""
    text = README.read_text()
    return re.search(r"```python\n(.*?)```", text[text.index("\n## Library\n"):], re.S).group(1)


def test_readme_library_example_runs_and_says_what_it_prints(capsys):
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    chsh, eta_21, key_match_fraction = capsys.readouterr().out.split()
    assert float(chsh) == pytest.approx(2.8284, abs=0.01)
    assert float(eta_21) == pytest.approx(2.0 * np.sqrt(2.0) - 2.0, abs=0.002)
    assert key_match_fraction == "1.0" and namespace["audit"]["key_mismatches"] == 0
    key = namespace["key"]
    assert namespace["qber"] == 0.0
    assert key.bits_alice.size > 0
    np.testing.assert_array_equal(key.bits_alice, key.bits_bob)
