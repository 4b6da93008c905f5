"""The demos run to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_sentences_and_pairs.py", "02_tfidf_neighbors.py",
         "03_train_and_select.py")
# demo 02 checks its pairing against the whole similarity matrix five times
SELF_CHECKS = {"02_tfidf_neighbors.py": 5}
SELF_CHECK = re.compile(r"(?:same partners as the whole [^:]*|bit-identical to TF-IDF): (\w+)")


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert SELF_CHECK.findall(proc.stdout) == ["True"] * SELF_CHECKS.get(demo, 0)


def test_cli_pipeline_script_exits_cleanly(tmp_path):
    # the script calls the installed `sadcluster` command; a shim on PATH
    # stands in for it, so the script runs without installing the package
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "sadcluster"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m sadcluster.cli "$@"\n')
    shim.chmod(0o755)
    env = src_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(["sh", str(ROOT / "demos" / "04_cli_pipeline.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "synth: identical bytes" in proc.stdout
    assert "train: identical bytes" in proc.stdout
    assert "embed: identical bytes" in proc.stdout
