"""The package namespace and the README's Python example stay in step."""

import contextlib
import io
import pathlib
import re

import minimax_gda

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().startswith("converged")


def test_all_names_resolve():
    for name in minimax_gda.__all__:
        assert getattr(minimax_gda, name) is not None, name
