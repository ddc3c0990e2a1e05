"""Process environment, Spark start/stop, memory and provenance.

:func:`configure` must run before ``pyspark`` is imported: the master,
driver memory and scratch directories are read when the JVM starts. All
scratch output (Spark local dirs, JVM and Python temp files, speech
tables, traces, results) goes under ``perfbench/out`` in the checkout.
"""
from __future__ import annotations

import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DRIVER_MEMORY = "2g"


def cores() -> tuple[int, int]:
    """(k for ``local[k]``, nproc): k is pinned to at most 4 cores."""
    nproc = len(os.sched_getaffinity(0))
    return min(4, nproc), nproc


def configure() -> None:
    """Point workers at this checkout's sources and pin the Spark master."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    tmp = OUT / "tmp"
    local = OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    k, _ = cores()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["SPARK_MASTER"] = f"local[{k}]"
    # Read by every JVM started from here, the spark-submit launcher too.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--driver-memory", DRIVER_MEMORY,
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", shlex.quote(f"spark.local.dir={local}"),
            "pyspark-shell",
        ]
    )


def start_session():
    """The program's own session factory, with its default shuffle
    partitions and AQE; only the master is pinned (see :func:`configure`)."""
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not this checkout")
    from repro.session import get_session

    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            stat = (d / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d.name))
    return kids


def descendants() -> list[int]:
    kids, out, todo = _children(), [], [os.getpid()]
    while todo:
        pid = todo.pop()
        for c in kids.get(pid, []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb() -> float:
    """Σ VmHWM (peak resident set) of this process and its descendants:
    the JVM, the Python worker daemon and its workers."""
    total_kb = 0
    for pid in [os.getpid()] + descendants():
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def stop_session(spark, timeout: float = 60.0) -> None:
    """Stop Spark and the JVM, and wait until every process started on
    the benchmark's behalf has ended."""
    from pyspark import SparkContext

    pids = descendants()
    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF of its stdin
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)
    deadline = time.monotonic() + timeout
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if Path(f"/proc/{p}").exists()]
        if pids:
            time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, 9)
        except OSError:
            pass


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(spark) -> dict:
    import numpy
    import pandas
    import pyspark

    k, nproc = cores()
    conf = spark.sparkContext.getConf()
    return {
        "master": spark.sparkContext.master,
        "k": k,
        "nproc": nproc,
        "driver_memory": conf.get("spark.driver.memory", None),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
        "git_sha": git_sha(),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
    }
