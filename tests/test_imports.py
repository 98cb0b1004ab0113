"""Each command imports only what it runs, and the names it runs stay patchable.

Every check that reads ``sys.modules`` runs ``python -m pmean`` in a new
interpreter, so nothing this test process imported can hide an import.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmean
import pmean.cli
import pmean.pooling

# Runs pmean's __main__ with argv[2:] after the setup code, then writes the
# exit code, the loaded modules and the setup's findings to argv[1] as JSON;
# the probe imports json only after it has listed the modules.
PROBE = """\
import runpy, sys
report, sys.argv = sys.argv[1], ["pmean", *sys.argv[2:]]
found = {{}}
{setup}
try:
    runpy.run_module("pmean", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
with open(report, "w") as f:
    json.dump({{"exit": code, "modules": modules, **found}}, f)
"""


def run_fresh(tmp_path: Path, argv: list[str], setup: str = "") -> dict:
    report = tmp_path / "probe.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(pmean.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(setup=setup), str(report), *map(str, argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def command(fx: Path, name: str, out: Path) -> list[str]:
    return {
        "embed": ["embed", "--config", fx / "ab.cfg", "--input", fx / "sentences.txt",
                  "--output", out / "e.tsv"],
        "embed --znorm": ["embed", "--config", fx / "ab.cfg", "--input", fx / "sentences.txt",
                          "--output", out / "e.tsv", "--znorm"],
        "train-projection": ["train-projection", "--source-embeddings", fx / "bilingual.txt",
                             "--target-embeddings", fx / "bilingual.txt", "--pairs", fx / "pairs.tsv",
                             "--model-out", out / "m.json", "--history-out", out / "h.csv",
                             "--shared-dim", "8", "--epochs", "3"],
        "eval": ["eval", "--config", fx / "ab.cfg", "--task", fx / "mixed.tsv",
                 "--out", out / "r", "--runs", "2"],
        "eval-transfer": ["eval-transfer", "--source-config", fx / "bi.cfg",
                          "--target-config", fx / "bi.cfg", "--train-task", fx / "blobs_en.tsv",
                          "--test-task", fx / "blobs_xx.tsv", "--out", out / "t", "--runs", "2",
                          "--znorm"],
        "sweep": ["sweep", "--config", fx / "ab.cfg", "--p-set", "1", "--p-set", "1,inf",
                  "--task", fx / "mixed.tsv", "--out", out / "s", "--runs", "2"],
    }[name]


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["embed", "--config"], 64),
], ids=["version", "help", "usage-error"])
def test_parsing_alone_loads_no_numpy(tmp_path, argv, code):
    probe = run_fresh(tmp_path, argv)
    assert probe["exit"] == code
    assert "numpy" not in probe["modules"]
    assert "json" not in probe["modules"]


@pytest.mark.parametrize("name, never", [
    ("embed", ["pmean.optim", "pmean.evaluation", "pmean.projection"]),
    ("train-projection", ["pmean.evaluation"]),
    # classes are split without np.unique, which imports numpy.ma
    ("eval", ["pmean.projection", "numpy.ma"]),
    ("eval-transfer", ["pmean.projection", "numpy.ma"]),
    ("sweep", ["pmean.projection", "numpy.ma"]),
])
def test_a_command_imports_only_what_it_runs(tmp_path, fx, name, never):
    probe = run_fresh(tmp_path, command(fx, name, tmp_path))
    assert probe["exit"] == 0
    assert "pmean.pooling" in probe["modules"]
    # the eval commands fit the classifier; embed and train-projection never load it
    assert ("pmean.classifier" in probe["modules"]) == (name in ("eval", "eval-transfer", "sweep"))
    assert not set(never) & set(probe["modules"])
    # orjson loads only to write float rows: embed's TSV, the model JSON
    assert ("orjson" in probe["modules"]) == (name in ("embed", "train-projection"))


# the pmean.cli names perfbench/tracing.py wraps, their defining modules, and a command calling each
WRAPPED = [
    ("load_text_embeddings", "embeddings", "embed"),
    ("embed_corpus", "pooling", "embed"),
    ("znorm_fit", "pooling", "embed --znorm"),
    ("znorm_apply", "pooling", "embed --znorm"),
    ("load_task", "evaluation", "eval"),
    ("emit_report", "evaluation", "eval"),
    ("train_projection", "projection", "train-projection"),
    ("write_atomic", "manifest", "embed"),
]


@pytest.mark.parametrize("name, module, cmd", WRAPPED, ids=[w[0] for w in WRAPPED])
def test_a_name_set_before_the_first_command_is_the_one_called(tmp_path, fx, name, module, cmd):
    setup = f"""\
import importlib, pmean.cli
found["loaded_before"] = "pmean.{module}" in sys.modules
found["calls"] = 0
def spy(*args, **kwargs):
    found["calls"] += 1
    return getattr(importlib.import_module("pmean.{module}"), "{name}")(*args, **kwargs)
pmean.cli.{name} = spy
"""
    probe = run_fresh(tmp_path, command(fx, cmd, tmp_path), setup)
    assert probe["exit"] == 0
    assert probe["calls"] > 0
    # set ahead of the import that would bind it; the CLI imports manifest up front
    assert probe["loaded_before"] == (module == "manifest")


class TestPackageApi:
    @pytest.mark.parametrize("name", pmean.__all__)
    def test_every_exported_name_imports(self, name):
        namespace = {}
        exec(f"from pmean import {name}", namespace)
        assert namespace[name] is getattr(pmean, name)

    def test_dir_lists_the_exports(self):
        assert set(pmean.__all__) <= set(dir(pmean))
        assert "__version__" in dir(pmean)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pmean, "no_such_name")
        assert not hasattr(pmean, "fit_runs")  # a submodule's name, not an export

    def test_the_cli_resolves_its_names_and_no_others(self):
        # perfbench reports a wrap target the CLI does not have as absent
        assert not hasattr(pmean.cli, "evaluate_monolingual")
        assert pmean.cli.embed_corpus is pmean.pooling.embed_corpus
