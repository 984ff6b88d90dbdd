import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def write_dataset(directory):
    """train/valid/test/literals TSVs of six people renting four houses, in the script's layout."""
    people, houses = [f"p{i}" for i in range(6)], [f"h{i}" for i in range(4)]
    splits = {
        "train": [(p, "rents", houses[i % 4]) for i, p in enumerate(people)]
                 + [(p, "knows", people[(i + 1) % 6]) for i, p in enumerate(people)],
        "valid": [(people[0], "rents", houses[1])],
        "test": [(people[1], "rents", houses[2]), (people[2], "knows", people[4])],
    }
    for name, triples in splits.items():
        (directory / f"{name}.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))
    literals = [(p, "income", 1000.0 + 250 * i) for i, p in enumerate(people)]
    literals += [(h, "rent", 400.0 + 90 * i) for i, h in enumerate(houses)]
    (directory / "literals.tsv").write_text("".join(f"{e}\t{a}\t{v}\n" for e, a, v in literals))


def test_full_scale_comparison_runs_end_to_end(tmp_path, monkeypatch, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    write_dataset(data)
    monkeypatch.setattr(sys, "argv", [
        "full_scale_comparison.py", "--data-dir", str(data), "--out", str(out),
        "--models", "distmult", "--epochs", "1", "--dim", "8", "--valid-every", "1",
    ])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "full_scale_comparison.py"), run_name="__main__")
    # the exit code is the directional verdict: 0 when fusion improved MRR, else 1
    assert exit_info.value.code in (0, 1)
    results = json.loads((out / "results.json").read_text())["results"]
    assert [(r["model"], r["fusion"]) for r in results] == [("distmult", "none"),
                                                            ("distmult", "linear")]
    assert "directional summary" in capsys.readouterr().out
