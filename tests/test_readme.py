"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_and_prints_what_it_shows(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # The comment under the translation shows its output, wrapped.
    shown = re.search(r"^print\(format_formula.*\n((?:# .*\n)+)", block,
                      re.M).group(1)
    assert printed[0] == " ".join(line[1:].strip()
                                  for line in shown.splitlines())
