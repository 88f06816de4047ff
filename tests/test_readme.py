"""The README's examples run and print what the README says they print."""

import contextlib
import io
import json
import re
from pathlib import Path

from richads import fixtures
from richads.cli import cli
from richads.model import load_instance

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(after: str, lang: str) -> str:
    """The first ```lang fenced block after the line `after`."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_library_quick_start_prints_its_comments():
    code = block("## Library quick start", "python")
    want = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert want == ["7/2", "{'a': Fraction(13, 7), 'b': Fraction(0, 1)}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_solve_output_is_the_readmes(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(block("## Instance files", "json"))
    assert load_instance(path) == fixtures.fx2()
    assert cli(["solve", "--mechanism", "truthful-3approx", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(block("`solve` output for the instance above:", "json"))
