"""API guards: ``seriesmine.__all__`` is the task surface and exactly what
the package exposes, importing the package and its CLI loads no scipy
module, every internal name the benchmark's tracer binds still exists, and
the benchmark's count identities hold on a traced run."""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import seriesmine
import seriesmine.cli as cli
from seriesmine.synthetic import random_walk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """Execute ``perfbench/<name>.py`` as a private module (the file is only read)."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_is_the_task_surface():
    # the three tasks and their result types, the fixed-length profile, series
    # input, the trace and the oracles; internal steps stay in their modules
    assert sorted(seriesmine.__all__) == sorted([
        "valmod", "VALMP", "top_variable_length_motif", "compute_var_length_motif_sets",
        "PairRanking", "RankedPair", "MotifSet", "validate_disjoint",
        "topkm_discord_discovery", "DiscordScan", "DiscordMatrix", "VariableLengthDiscordMatrix",
        "compute_matrix_profile", "MatrixProfile", "ProfileResult",
        "DataSeries", "ingest", "read_series", "RunTrace",
        "brute_force_motifs", "brute_force_discords"])


def test_all_names_resolve():
    missing = [name for name in seriesmine.__all__ if not hasattr(seriesmine, name)]
    assert missing == []


def test_no_public_name_outside_all():
    exposed = {name for name, value in vars(seriesmine).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exposed - set(seriesmine.__all__)) == []
    assert len(seriesmine.__all__) == len(set(seriesmine.__all__))


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = ("import sys, seriesmine, seriesmine.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(seriesmine.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_tracer_bindings_resolve():
    # perfbench/tracer.py wraps package names from outside; a renamed one
    # would only show up as "not traced (missing)" in a traced benchmark run
    tracer = _load_perfbench("tracer")
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in tracer.METHODS
                if not callable(getattr(getattr(importlib.import_module(mod), cls, None),
                                        attr, None))]
    if not callable(getattr(importlib.import_module("seriesmine.cli"), "RunTrace", None)):
        missing.append("seriesmine.cli.RunTrace")
    assert missing == []


def test_tracer_count_identities_hold(tmp_path, monkeypatch):
    # gated benchmark runs do not trace, so a row_profile call moved to
    # another call site would only break the traced run's count identities;
    # at p=50 this input has partial, repair and full-rescan rows
    tracer_mod = _load_perfbench("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)   # worker.py imports it
    worker = _load_perfbench("worker")
    series_path = tmp_path / "walk.txt"
    np.savetxt(series_path, random_walk(400, seed=0))
    for command, extra in (("motifs", []), ("motif-sets", ["--top-k", "10", "-D", "4"]),
                           ("discords", ["--k", "3", "--m", "3"])):
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            rc = tracer.call(cli.main, [command, "--input", str(series_path),
                                        "--output", str(tmp_path / "out.json"),
                                        "--lmin", "16", "--lmax", "32", "--p", "50", *extra])
        finally:
            tracer.uninstall()
        assert rc == 0 and tracer.missing == []
        (root,) = tracer_mod.analyze(tracer)
        assert worker.identities(types.SimpleNamespace(command=command), root) == []
        if command == "motifs":
            layer = root["layer"]
            assert layer["valmod.partial_rows"] and layer["valmod.repair_rows"]
            assert layer["profile.rescans"]
