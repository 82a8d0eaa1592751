"""The compiled kernel is optional: setup.py without a working C compiler
still succeeds, builds nothing, and leaves haltlab on the pure kernel."""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_build_without_a_compiler_falls_back_to_the_pure_kernel(tmp_path):
    shutil.copy(ROOT / "setup.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(
        ROOT / "src" / "haltlab", tmp_path / "src" / "haltlab",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"),
    )
    env = {k: v for k, v in os.environ.items() if k not in ("HALTLAB_KERNEL", "PYTHONPATH")}
    built = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=tmp_path, env={**env, "CC": "/nonexistent/cc"},
        capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stdout + built.stderr
    extensions = [
        p for p in tmp_path.rglob("_stepper*") if p.name not in ("_stepper.c", "_stepper_py.py")
    ]
    assert extensions == []
    imported = subprocess.run(
        [sys.executable, "-c", "from haltlab import vm; print(vm.KERNEL_NAME, vm.__file__)"],
        cwd=tmp_path, env={**env, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert imported.returncode == 0, imported.stderr
    name, path = imported.stdout.split()
    assert name == "pure"
    assert pathlib.Path(path).is_relative_to(tmp_path)
