"""Pinning the program under test."""

import os
import subprocess
import sys

import pytest

import pin
import run

RUN = os.path.join(os.path.dirname(pin.__file__), "run.py")


def test_refuses_repro_variables():
    with pytest.raises(pin.PinError, match="REPRO_BUFFER_ARENA"):
        pin.check_no_repro_vars({"PATH": "/bin", "REPRO_BUFFER_ARENA": "0"})
    pin.check_no_repro_vars({"PATH": "/bin", "NOT_REPRO_X": "1"})


def test_run_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CHAOS", "kill@1")
    code = run.main(["--workload", "train-nfp", "--seed", "1", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code != 0
    assert out == ""
    assert "REPRO_CHAOS" in err


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "pin.py", "spec.py"):
        (bench / name).write_text(
            open(os.path.join(os.path.dirname(RUN), name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "train-nfp",
         "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_blas_thread_per_process():
    env = {"OMP_NUM_THREADS": "64", "MKL_NUM_THREADS": "1"}
    replaced = pin.pin_threads(env)
    assert all(env[var] == "1" for var in pin.THREAD_VARS)
    assert replaced["OMP_NUM_THREADS"] == "64"
    assert "MKL_NUM_THREADS" not in replaced
    assert pin.pin_threads(env) == {}
