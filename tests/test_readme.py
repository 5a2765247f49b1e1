"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} (Library example)", "exec"),
         {"__name__": "__main__"})
    verdict, numbers = capsys.readouterr().out.splitlines()
    assert "PERSIST_ALL_DOMAINS" in verdict
    sigma1, lambda1, residual, sup = map(float, numbers.split())
    assert sigma1 < 0.0 and lambda1 < 0.0
    assert 0.0 <= residual <= 1e-8 * max(1.0, sup)
    assert list(tmp_path.iterdir()) == []
