"""The README's library example runs as written, and its config docs match
the code and the figure script."""

import re
from pathlib import Path

from seasonal_dispersal import config

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


def test_recognized_keys_table_is_the_known_keys():
    after = README.read_text().split("Recognized keys:", 1)[1]
    table = after.strip().split("\n\n", 1)[0]
    keys = set()
    for row in table.splitlines()[2:]:
        for span in re.findall(r"`([^`]*)`", row.split("|")[1]):
            for key in span.split(","):
                head, *tails = key.strip().split("/")
                keys.add(head)
                keys.update(head.rsplit(".", 1)[0] + "." + tail for tail in tails)
    assert keys == config.KNOWN_KEYS


def test_figure_config_block_is_the_file():
    block = re.search(r"```\n# scripts/p1_figure\.cfg\n(.*?)```", README.read_text(), re.S)
    script = README.parent / "scripts" / "p1_figure.cfg"
    assert config._parse_lines(block.group(1)) == config._parse_lines(script.read_text())
