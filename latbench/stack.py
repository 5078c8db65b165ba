"""The system under test: generated inputs, the offline store build, and
the ``python -m repro.serve --catalog store:<dir>`` server process.

The server receives only what :func:`write_inputs` generated from the
seed (two CSV files, turned into a store directory by
``build_store_catalog``); it never sees the seed or the workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from typing import List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")


def write_inputs(out_dir: str, seed: int, sizing: dict) -> dict:
    """Generate the map's bus routes and the seed's riders as CSV files."""
    from repro.datasets import (
        CityModel,
        generate_bus_routes,
        generate_taxi_trips,
        save_facilities,
        save_trajectories,
    )

    city = CityModel.generate(
        seed=sizing["map_seed"],
        size=sizing["city_size"],
        n_hotspots=sizing["hotspots"],
    )
    users = generate_taxi_trips(sizing["users"], city, seed=seed)
    routes = generate_bus_routes(
        sizing["routes"], city, seed=sizing["map_seed"], n_stops=sizing["stops"]
    )
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "users": os.path.join(out_dir, "users.csv"),
        "facilities": os.path.join(out_dir, "facilities.csv"),
    }
    save_trajectories(users, paths["users"])
    save_facilities(routes, paths["facilities"])
    return paths


def build_store(
    inputs: dict, store_dir: str, psi_values: Sequence[float], n_shards: int
) -> None:
    from repro.service.http.catalog import build_store_catalog

    shutil.rmtree(store_dir, ignore_errors=True)
    build_store_catalog(
        store_dir,
        source_spec=f"csv:{inputs['users']}:{inputs['facilities']}",
        psi_values=list(psi_values),
        n_shards=n_shards,
    )


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def host_cpu_ticks() -> tuple:
    """``(all, stolen)`` CPU ticks of the host since boot, from
    ``/proc/stat``; stolen ticks are those the hypervisor gave to other
    guests while this one had work to run."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user and nice)
    return sum(fields[:8]), fields[7]


def steal_pct(before: tuple, after: tuple) -> float:
    total = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / total if total else 0.0


def child_env() -> dict:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, for the interpreters the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Server:
    """A running server process and its address."""

    proc: subprocess.Popen
    host: str
    port: int
    log_path: str

    def get_json(self, path: str) -> dict:
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read())

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def launch(
    store_dir: str,
    work_dir: str,
    extra_args: Sequence[str] = (),
    spans_out: Optional[str] = None,
    timeout: float = 60.0,
) -> Server:
    """Start the server on an ephemeral port and wait until ``/healthz``
    answers.  With ``spans_out`` the traced launcher runs instead."""
    serve_args: List[str] = [
        "--port", "0", "--catalog", f"store:{store_dir}", *extra_args,
    ]
    if spans_out is None:
        cmd = [sys.executable, "-m", "repro.serve", *serve_args]
    else:
        cmd = [
            sys.executable, os.path.join(HERE, "tracer.py"),
            "--spans-out", spans_out, "--", *serve_args,
        ]
    env = child_env()
    log_path = os.path.join(work_dir, f"server-{time.monotonic_ns()}.log")
    log = open(log_path, "w+")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
    )
    log.close()
    deadline = time.monotonic() + timeout
    server = None
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {proc.returncode}: "
                    + open(log_path).read()[-2000:]
                )
            if server is None:
                match = _SERVING.search(open(log_path).read())
                if match:
                    server = Server(proc, match[1], int(match[2]), log_path)
            if server is not None:
                try:
                    if server.get_json("/healthz").get("status") == "ok":
                        return server
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy within {timeout}s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
