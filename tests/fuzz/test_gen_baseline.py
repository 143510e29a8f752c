"""``python -m repro.fuzz.gen_baseline``'s command line."""

import pytest

from repro.fuzz import gen_baseline
from repro.fuzz.dedup import Baseline


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """Run ``main`` in an empty cwd, with the regeneration stubbed out;
    yields the list of ``build_baseline`` calls."""
    calls = []

    def build(progress=print):
        calls.append(progress)
        return Baseline.empty()

    monkeypatch.setattr(gen_baseline, "build_baseline", build)
    monkeypatch.chdir(tmp_path)
    return calls


def test_help_prints_usage_and_regenerates_nothing(builds, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        gen_baseline.main(["--help"])
    assert exit_info.value.code == 0
    assert "OUT_PATH" in capsys.readouterr().out
    assert builds == []
    assert list(tmp_path.iterdir()) == []


def test_out_path_names_the_file_written(builds, tmp_path):
    assert gen_baseline.main(["baseline.json"]) == 0
    assert len(builds) == 1
    assert len(Baseline.load(str(tmp_path / "baseline.json"))) == 0
