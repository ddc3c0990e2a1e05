"""Every module imports and every job script compiles, without Spark.

A module left importing a deleted or renamed module fails here, fast,
instead of deep inside a Spark task or a job run.
"""
import importlib
import pkgutil
import py_compile
from pathlib import Path

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
JOBS = sorted((Path(__file__).resolve().parents[1] / "jobs").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "job.pyc"), doraise=True)


def test_found_modules_and_jobs():
    assert "repro.core.planner" in MODULES
    assert JOBS
