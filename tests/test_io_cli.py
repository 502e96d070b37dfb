import json
import os

import numpy as np
import pytest

import seriesmine as sm
from seriesmine.cli import main
from seriesmine.io import InputFormatError, document_to_csv, read_series, write_document
from seriesmine.synthetic import planted_cluster_series, random_walk


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.txt"
    np.savetxt(path, random_walk(400, seed=0))
    return str(path)


def test_read_series_one_value_per_line(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.5\n2.5\n\n3.5\n")
    s = read_series(str(path))
    assert np.allclose(s.values, [1.5, 2.5, 3.5])


def test_read_series_csv_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("timestamp,value\n2014-01-01,10.5\n2014-01-02,11.5\n")
    s = read_series(str(path), column=1)
    assert np.allclose(s.values, [10.5, 11.5])


def test_read_series_rejects_garbage(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InputFormatError):
        read_series(str(path))


def test_csv_serialization_keeps_17_digits(tmp_path):
    value = 0.1234567890123456789
    doc = {"schema_version": 1, "x": value, "rows": [{"a": value, "b": 2}]}
    text = document_to_csv(doc)
    assert "%.17g" % value in text
    assert float("%.17g" % value) == value    # lossless round-trip


def test_json_round_trips_losslessly(tmp_path):
    doc = {"schema_version": 1, "values": [0.1 + 0.2, 1e-300, -1.5e17],
           "timing": {"wall_seconds": None}}
    path = tmp_path / "doc.json"
    write_document(doc, str(path), "json")
    loaded = json.loads(path.read_text())
    assert loaded["values"] == doc["values"]


def test_motifs_output_shape_and_determinism(series_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["motifs", "--input", series_file, "--lmin", "8", "--lmax", "16",
            "--p", "5"]
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    a, b = json.load(open(out1)), json.load(open(out2))
    assert len(a["distances"]) == 400 - 8 + 1
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_motifs_cli_matches_oracle_cli(series_file, tmp_path):
    eng, orc = str(tmp_path / "e.json"), str(tmp_path / "o.json")
    common = ["--input", series_file, "--lmin", "8", "--lmax", "12", "--trace"]
    assert main(["motifs"] + common + ["--p", "5", "--output", eng]) == 0
    assert main(["oracle", "motifs"] + common + ["--output", orc]) == 0
    e, o = json.load(open(eng)), json.load(open(orc))
    for key in ("normDistances", "lengths", "indices"):
        ve, vo = e[key], o[key]
        assert len(ve) == len(vo)
        for x, y in zip(ve, vo):
            if isinstance(x, float):
                assert y == pytest.approx(x, abs=1e-7)
            else:
                assert x == y
    for re_, ro in zip(e["per_length"], o["per_length"]):
        assert (re_["offset"], re_["neighbor"]) == (ro["offset"], ro["neighbor"])
        assert re_["distance"] == pytest.approx(ro["distance"], abs=1e-7)
    for rec in e["pruning"]["per_length"]:
        assert rec["reseed"] in (None, "uncertified", "cost")
        assert rec["full_recompute"] == (rec["reseed"] is not None)


def test_discords_cli_matches_oracle_cli(series_file, tmp_path):
    eng, orc = str(tmp_path / "e.json"), str(tmp_path / "o.json")
    common = ["--input", series_file, "--lmin", "16", "--lmax", "24",
              "--k", "3", "--m", "3"]
    assert main(["discords"] + common + ["--p", "5", "--per-length",
                                         "--output", eng]) == 0
    assert main(["oracle", "discords"] + common + ["--output", orc]) == 0
    e, o = json.load(open(eng)), json.load(open(orc))
    assert [c["offset"] for c in e["merged"]] == [c["offset"] for c in o["merged"]]
    assert [c["length"] for c in e["merged"]] == [c["length"] for c in o["merged"]]
    for le, lo in zip(e["per_length"], o["per_length"]):
        assert [c["offset"] for c in le["cells"]] == [c["offset"] for c in lo["cells"]]


def test_motif_sets_cli_disjoint_lint(tmp_path):
    path = tmp_path / "cluster.txt"
    np.savetxt(path, planted_cluster_series(1800, 48, (200, 500, 800, 1100, 1400),
                                            jitter=0.02, seed=0))
    out = str(tmp_path / "sets.json")
    assert main(["motif-sets", "--input", str(path), "--lmin", "32", "--lmax", "48",
                 "--p", "8", "--top-k", "10", "--output", out]) == 0
    doc = json.load(open(out))
    assert doc["disjoint"] is True
    assert doc["sets"][0]["frequency"] == 5
    seen = set()
    for s in doc["sets"]:
        assert not (seen & set(s["members"]))
        seen |= set(s["members"])


def test_mp_subcommand(series_file, tmp_path):
    out = str(tmp_path / "mp.json")
    assert main(["mp", "--input", series_file, "--length", "16", "--p", "5",
                 "--output", out]) == 0
    doc = json.load(open(out))
    assert len(doc["mp"]) == 400 - 16 + 1
    assert doc["schema_version"] == 1


def test_validation_exit_code_names_constraint(series_file, capsys):
    rc = main(["discords", "--input", series_file, "--lmin", "16", "--lmax", "24",
               "--k", "1", "--m", "3", "--p", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "p" in err and "m" in err


@pytest.mark.parametrize("argv", [
    ["motif-sets", "--lmin", "8", "--lmax", "16", "--top-k", "0"],
    ["oracle", "discords", "--lmin", "16", "--lmax", "24", "--m", "0"],
    ["oracle", "discords", "--lmin", "16", "--lmax", "24", "--k", "0"],
    ["oracle", "motifs", "--lmin", "2", "--lmax", "8"],
    ["oracle", "motifs", "--lmin", "8", "--lmax", "300"],
    ["motif-sets", "--lmin", "8", "--lmax", "16", "-D", "-1"],
    ["motif-sets", "--lmin", "8", "--lmax", "16", "-D", "0"],
    ["motif-sets", "--lmin", "8", "--lmax", "16", "-D", "nan"],
    ["motif-sets", "--lmin", "8", "--lmax", "16", "-D", "inf"],
])
def test_rejected_parameters_exit_3(series_file, argv, capsys):
    assert main(argv + ["--input", series_file]) == 3
    assert capsys.readouterr().err.startswith("mine: validation error:")


def test_negative_column_rejected(tmp_path):
    path = tmp_path / "s.csv"
    values = random_walk(12, seed=1)
    path.write_text("".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values)))
    with pytest.raises(InputFormatError):
        read_series(str(path), column=-1)
    assert main(["mp", "--input", str(path), "--column", "-1", "--length", "4"]) == 2


def test_io_exit_code_for_missing_file(capsys):
    rc = main(["motifs", "--input", "/nonexistent/series.txt",
               "--lmin", "8", "--lmax", "16"])
    assert rc == 2


def test_env_var_overrides(series_file, tmp_path, monkeypatch):
    out = str(tmp_path / "env.json")
    monkeypatch.setenv("MINE_LMIN", "8")
    monkeypatch.setenv("MINE_LMAX", "12")
    monkeypatch.setenv("MINE_P", "3")
    assert main(["motifs", "--input", series_file, "--output", out]) == 0
    doc = json.load(open(out))
    assert doc["parameters"]["lmin"] == 8
    assert doc["parameters"]["p"] == 3


def test_threads_flag_identical_output(series_file, tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = str(tmp_path / f"t{threads}.json")
        assert main(["motifs", "--input", series_file, "--lmin", "8",
                     "--lmax", "16", "--p", "5", "--threads", threads,
                     "--output", out]) == 0
        doc = json.load(open(out))
        doc.pop("timing")
        doc["parameters"].pop("threads")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_bench_accounting(series_file, tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--input", series_file, "--lmin", "16", "--lmax", "16",
                 "--p", "5", "--output", out]) == 0
    text = open(out).read()
    rows = [line.split(",") for line in text.splitlines() if line]
    kv = {r[0]: r[1] for r in rows if len(r) == 2}
    # single-length range: the comparison runs the same work twice
    speedup = float(kv["speedup"])
    assert 0.1 < speedup < 10.0
    # per-length pruning counts sum to the reported totals
    header_idx = next(i for i, line in enumerate(text.splitlines())
                      if line.startswith("[pruning.per_length]"))
    lines = text.splitlines()[header_idx + 1:]
    cols = lines[0].split(",")
    table = [dict(zip(cols, line.split(","))) for line in lines[1:] if line]
    assert sum(int(r["valid"]) for r in table) == int(float(kv["pruning.totals.valid"]))
    assert sum(int(r["recomputed"]) for r in table) == \
        int(float(kv["pruning.totals.recomputed"]))
