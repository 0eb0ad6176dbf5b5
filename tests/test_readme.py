"""The README's library tour, run as written from the repository root, so
that it cannot drift from the API."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_tour_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["holds", "holds", "fails"]
    assert printed[2].startswith("fails ('v0', ")
