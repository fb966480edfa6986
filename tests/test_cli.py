"""End-to-end checks of the command-line interface and its file formats."""

import ast
import dataclasses
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import numpy as np

from carsfisher import EmitterScene, PlaneWaveExcitation, cli, fisher, numerics
from carsfisher import fi_spade, image_amplitudes

ROOT = Path(__file__).resolve().parent.parent


def _write_cfg(tmp_path, name, **settings):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()),
                    encoding="utf-8")
    return str(path)


def _figure2_cfg(tmp_path, **extra):
    settings = dict(s_min=0.2, s_max=2.0, s_points=4, ktilde_grid="0,2", M=8)
    settings.update(extra)
    return _write_cfg(tmp_path, "fig2.cfg", **settings)


def _read_lines(path):
    return path.read_bytes().decode("utf-8").split("\r\n")


def test_figure2_csv_structure(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = _figure2_cfg(tmp_path)
    assert cli.main(["figure2", "--config", cfg, "--out", str(out)]) == 0

    raw = out.read_bytes()
    assert raw.endswith(b"\r\n")
    lines = _read_lines(out)
    assert lines[0].startswith("# carsfisher ")
    assert "schema=16" in lines[0]
    assert lines[1] == "# command=figure2"
    assert lines[2].startswith("# config ")
    assert "output_path" not in lines[2]
    assert "format=" not in lines[2]
    assert "s_points=4" in lines[2]

    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "s,ktilde,qfi,fi_di,fi_di_err,fi_spade_M,M"
    data = [ln for ln in lines[header_idx + 1:] if ln]
    assert len(data) == 2 * 4  # ktilde grid x s grid
    first = data[0].split(",")
    assert float(first[0]) == 0.2
    # 17-significant-digit floats survive a round trip
    assert len(first[2].replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_figure2_runs_where_sinh_overflows(tmp_path):
    # s^2/2 passes 709.8 near s = 37.7, where sinh(s^2/2) overflows
    out = tmp_path / "wide.csv"
    cfg = _write_cfg(tmp_path, "wide.cfg", s_max=40)
    assert cli.main(["figure2", "--config", cfg, "--out", str(out)]) == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = [ln.split(",") for ln in lines[header_idx + 1:] if ln]
    assert np.isfinite([[float(v) for v in row] for row in rows]).all()
    s, kt, qfi = (float(v) for v in rows[-1][:3])
    assert s == 40.0
    # far apart, the normalized QFI reaches 1 + kt^2
    assert qfi == pytest.approx(1.0 + kt * kt, rel=1e-12)


def test_figure2_runs_are_byte_identical(tmp_path):
    cfg = _figure2_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["figure2", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["figure2", "--config", cfg, "--out", str(out2)]) == 0
    # the output location is not part of the content
    assert out1.read_bytes() == out2.read_bytes()


def test_figure2_rejects_wrong_family(tmp_path, capsys):
    # the sweep fixes its excitation family, so a family setting is refused
    # like any key it does not read, whatever its value
    for family in ("vortex", "plane"):
        cfg = _figure2_cfg(tmp_path, family=family)
        assert cli.main(["figure2", "--config", cfg,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "figure2 does not read family" in capsys.readouterr().err


def test_figure3_defaults_to_vortex_family(tmp_path):
    cfg = _write_cfg(tmp_path, "fig3.cfg", s_min=0.5, s_max=1.5, s_points=3,
                     psi_grid="0,0.2", M=8, a_min=0.3, a_max=3.0)
    out = tmp_path / "fig3.csv"
    assert cli.main(["figure3", "--config", cfg, "--out", str(out)]) == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == ("s,psi,a,qfi,fi_di,fi_di_err,fi_spade_M,"
                                 "di_over_qfi,a_opt,qfi_opt")
    data = [ln.split(",") for ln in lines[header_idx + 1:] if ln]
    assert len(data) == 2 * 3
    # the waist-optimized envelope is computed once (psi = 0) and repeated
    for row_a, row_b in zip(data[:3], data[3:]):
        assert row_a[8:] == row_b[8:]
    # on-axis rows: direct imaging saturates the bound
    for row in data[:3]:
        assert float(row[7]) == pytest.approx(1.0, abs=1e-5)


def _table(path):
    lines = _read_lines(path)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[header_idx].split(",")
    return [dict(zip(header, map(float, ln.split(","))))
            for ln in lines[header_idx + 1:] if ln]


@pytest.mark.parametrize("command,settings", [
    ("figure2", dict(s_min=0.01, s_max=6.0, s_points=7, ktilde_grid="0,4")),
    ("figure3", dict(s_min=0.01, s_max=6.0, s_points=7, psi_grid="0,0.3",
                     a_min=0.3, a_max=3.0)),
])
def test_sweep_di_error_column_is_within_tol(tmp_path, command, settings):
    cfg = _write_cfg(tmp_path, "sweep.cfg", M=8, **settings)
    norm, raw = tmp_path / "norm.csv", tmp_path / "raw.csv"
    assert cli.main([command, "--config", cfg, "--tol", "1e-7",
                     "--out", str(norm)]) == 0
    assert cli.main([command, "--config", cfg, "--tol", "1e-7", "--raw",
                     "--out", str(raw)]) == 0
    rows, raw_rows = _table(norm), _table(raw)
    assert len(rows) == 14
    assert all(0.0 <= row["fi_di_err"] <= 1e-7 for row in rows)
    assert any(row["fi_di_err"] > 0.0 for row in rows)
    # --raw scales the bound like the value: by 2 kappa g^2 = 2
    for row, raw_row in zip(rows, raw_rows):
        assert raw_row["fi_di_err"] == 2.0 * row["fi_di_err"]
        assert raw_row["fi_di"] == 2.0 * row["fi_di"]


@pytest.mark.parametrize("flags,settings", [
    pytest.param(["--tol", "0"], {}, id="tol-0"),
    pytest.param(["--tol", "-1"], {}, id="tol-negative"),
    pytest.param(["--tol", "nan"], {}, id="tol-nan"),
    pytest.param(["--tol", "inf"], {}, id="tol-inf"),
    pytest.param([], {"s_min": "nan"}, id="s_min-nan"),
    pytest.param([], {"s_max": "inf"}, id="s_max-inf"),
    pytest.param([], {"ktilde_grid": "0,nan"}, id="grid-nan"),
    pytest.param([], {"mu": "inf"}, id="mu-inf"),
])
def test_bad_numbers_are_rejected_before_output(tmp_path, capsys, flags, settings):
    cfg = _figure2_cfg(tmp_path, **settings)
    out = tmp_path / "x.csv"
    assert cli.main(["figure2", "--config", cfg, "--out", str(out), *flags]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_environment_overrides_file_and_flags_override_env(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, "conv.cfg", s_min=0.5, s_max=1.0, s_points=5,
                     ktilde=2.0)
    monkeypatch.setenv("CARSFISHER_S_POINTS", "2")
    monkeypatch.setenv("CARSFISHER_RAW", "0")
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out),
                     "--raw"]) == 0
    config_line = next(ln for ln in _read_lines(out) if ln.startswith("# config"))
    assert "s_points=2" in config_line     # env beats file
    assert "raw=True" in config_line       # flag beats env
    header_idx = next(i for i, ln in enumerate(_read_lines(out))
                      if not ln.startswith("#"))
    data = [ln for ln in _read_lines(out)[header_idx + 1:] if ln]
    assert len(data) == 2 * 5  # two s-points, five mode cutoffs


@pytest.mark.parametrize("command", ["figure2", "figure3", "convergence",
                                     "spectral-dump", "optimize-waist"])
def test_csv_only_commands_reject_json_format(tmp_path, capsys, command):
    # there is no format setting: the table commands write CSV, and a
    # --format flag or format key is a usage error, not a silent no-op
    out = tmp_path / "table.json"
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--format", "json", "--out", str(out)])
    assert info.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()

    cfg = _write_cfg(tmp_path, "fmt.cfg", format="json")
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "unknown configuration key 'format'" in capsys.readouterr().err
    assert not out.exists()


# a valid non-default value of each string field
_STRING_VALUES = {"family": "vortex", "measurement": "di", "output_path": "x.csv"}


def _other_value(field):
    # a value unlike the default that still passes RunConfig.validate
    default = field.default
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2.0
    if isinstance(default, tuple):
        return default + (5.0,)
    return _STRING_VALUES[field.name]


def _as_text(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


@pytest.mark.parametrize("field", dataclasses.fields(cli.RunConfig),
                         ids=lambda f: f.name)
def test_every_config_key_parses_from_file_and_environment(tmp_path, field):
    value = _other_value(field)
    text = _as_text(value)
    path = _write_cfg(tmp_path, "key.cfg", **{field.name: text})
    from_file = cli.load_config(path, env={})
    from_env = cli.load_config(None, env={f"CARSFISHER_{field.name.upper()}": text})
    for cfg in (from_file, from_env):
        assert getattr(cfg, field.name) == value
        assert type(getattr(cfg, field.name)) is type(value)
        assert cfg.explicit_keys == {field.name}


@pytest.mark.parametrize("argv", [
    ["convergence", "--tol", "0.5"],
    ["optimize-waist", "--modes", "3"],
    ["figure2", "--seed", "4"],
    ["simulate", "--raw"],
    ["adjudicate", "--modes", "3", "--tol", "0.5"],
    ["spectral-dump", "--seed", "4"],
    # refused as unread before its value is checked
    ["optimize-waist", "--seed", "-1"],
])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(flag in err for flag in argv[1::2] if flag.startswith("--"))
    assert not out.exists()


def test_config_keys_a_command_does_not_read_are_usage_errors(tmp_path, capsys,
                                                             monkeypatch):
    out = tmp_path / "x.csv"
    monkeypatch.setenv("CARSFISHER_SEED", "4")
    assert cli.main(["optimize-waist", "--out", str(out)]) == 2
    assert "optimize-waist does not read seed" in capsys.readouterr().err
    monkeypatch.delenv("CARSFISHER_SEED")
    cfg = _write_cfg(tmp_path, "conv.cfg", tol=0.5, M=3)
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    assert "convergence does not read M, tol" in capsys.readouterr().err
    assert not out.exists()


def test_every_key_a_command_reads_is_a_config_key():
    for command, (_, reads) in cli._COMMANDS.items():
        assert reads <= set(cli._FIELD_TYPES), command


def test_every_config_key_is_read_by_some_command():
    # output_path names where an output goes; every other key shapes one
    read = set().union(*(reads for _, reads in cli._COMMANDS.values()))
    assert set(cli._FIELD_TYPES) - read == {"output_path"}


# small settings each command reads, so that every command runs quickly
_SMALL_SETTINGS = {
    "figure2": dict(s_points=2, ktilde_grid="0", M=4),
    "figure3": dict(s_points=2, psi_grid="0", M=4),
    "convergence": dict(s_points=2),
    "adjudicate": {},
    "simulate": dict(batches=2, M=4),
    "spectral-dump": {},
    "optimize-waist": dict(s_points=2),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_output_records_exactly_the_keys_its_command_reads(tmp_path, command):
    cfg = _write_cfg(tmp_path, "small.cfg", **_SMALL_SETTINGS[command])
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    reads = cli._COMMANDS[command][1]
    if command == "simulate":
        # a SPADE campaign of the plane wave reads neither a nor psi
        reads = reads - {"a", "psi"}
    if command in ("adjudicate", "simulate"):
        recorded = list(json.loads(out.read_text())["config"])
        assert set(recorded) == reads
        if command == "adjudicate":
            assert recorded == []
    else:
        line = next(ln for ln in _read_lines(out) if ln.startswith("# config "))
        recorded = [item.partition("=")[0] for item in line.split()[2:]]
        # in RunConfig field order
        assert recorded == [f.name for f in dataclasses.fields(cli.RunConfig)
                            if f.name in reads]


def test_direct_imaging_vortex_campaign_records_the_keys_it_reads(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.cfg", batches=2, measurement="di",
                     family="vortex")
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    reads = cli._COMMANDS["simulate"][1] - {"M", "ktilde"}
    assert set(json.loads(out.read_text())["config"]) == reads


@pytest.mark.parametrize("settings,flags,unread", [
    pytest.param({"measurement": "di"}, ["--modes", "3"], "--modes", id="di-modes"),
    pytest.param({"a": 0.5}, [], "a", id="plane-a"),
    pytest.param({"family": "vortex", "ktilde": 1.0}, [], "ktilde", id="vortex-ktilde"),
])
def test_simulate_refuses_keys_its_campaign_does_not_read(tmp_path, capsys, settings,
                                                          flags, unread):
    cfg = _write_cfg(tmp_path, "sim.cfg", batches=2, **settings)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 2
    assert f"simulate does not read {unread}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,settings,key", [
    pytest.param(["--seed", "-1"], {}, "seed", id="seed-negative"),
    pytest.param([], {"search_lo": 1, "search_hi": 1}, "search_lo", id="search-empty"),
])
def test_simulate_names_a_refused_seed_or_search_interval(tmp_path, capsys, flags,
                                                          settings, key):
    cfg = _write_cfg(tmp_path, "sim.cfg", batches=2, **settings)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert key in err
    assert not out.exists()


def _bench_table(name):
    # the benchmark's workload tables, read without importing bench/run.py
    # (importing it rewrites the process environment)
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


@pytest.mark.parametrize("workload", ["sweep", "mc_di", "quick"])
def test_benchmark_invocations_exit_zero(tmp_path, workload):
    cfg = tmp_path / "workload.cfg"
    lines = _bench_table("WORKLOAD_CONFIG").get(workload, ())
    cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    for metric, command, extra in _bench_table("WORKLOADS")[workload]:
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / metric),
                *(a.format(seed=1) for a in extra)]
        assert cli.main(argv) == 0, argv


def _count_quadrature_work(monkeypatch):
    """Count integrand calls (rounds) and Gauss-Kronrod cells."""
    counts = {"calls": 0, "cells": 0}
    gk_cells = numerics._gk_cells

    def counted(f, rows, lo, hi):
        counts["calls"] += 1
        counts["cells"] += len(rows)
        return gk_cells(f, rows, lo, hi)

    monkeypatch.setattr(numerics, "_gk_cells", counted)
    return counts


def test_default_sweeps_make_a_fixed_amount_of_quadrature_work(tmp_path, monkeypatch):
    # the lockstep batches split exactly the cells the per-scene rule
    # splits: 69 integrand calls fill 10,748 cells of the folded DI
    # windows for figure2 + figure3
    counts = _count_quadrature_work(monkeypatch)
    for command in ("figure2", "figure3"):
        assert cli.main([command, "--out", str(tmp_path / command)]) == 0
    assert counts == {"calls": 69, "cells": 10_748}


def test_geometry_check_runs_in_few_quadrature_rounds(monkeypatch):
    # one batch (the norm and every Gram entry) covers every s
    counts = _count_quadrature_work(monkeypatch)
    report = cli._adjudicate_geometry()
    assert report["matches"]
    assert counts["calls"] <= 40


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.cfg", s_pionts=4)
    assert cli.main(["figure2", "--config", cfg]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_unknown_environment_key_is_rejected_by_load_config():
    env = {"CARSFISHER_S_PIONTS": "4", "CARSFISHER_SEED": "3", "PATH": "/bin"}
    with pytest.raises(cli.ConfigError, match="'CARSFISHER_S_PIONTS'"):
        cli.load_config(None, env=env)
    # known keys and variables without the prefix still pass
    cfg = cli.load_config(None, env={"CARSFISHER_SEED": "3", "S_PIONTS": "4"})
    assert cfg.seed == 3
    assert cfg.explicit_keys == {"seed"}


def test_unknown_environment_key_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARSFISHER_S_PIONTS", "4")
    out = tmp_path / "waist.csv"
    assert cli.main(["optimize-waist", "--out", str(out)]) == 2
    assert "CARSFISHER_S_PIONTS" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_kappa_is_a_usage_error(tmp_path, capsys):
    cfg = _figure2_cfg(tmp_path, kappa=2.0)
    assert cli.main(["figure2", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err


def test_simulate_at_zero_separation_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "sim0.cfg", family="plane", ktilde=2.0,
                     s_sim=0.0, mu=100, batches=2, M=8,
                     search_lo=0.01, search_hi=0.5)
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "sim.json")]) == 2
    assert "Fisher information vanishes" in capsys.readouterr().err


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("setting, message", [
    ({"mu": 0.0}, "mu must be positive and finite, got 0.0"),
    ({"mu": -5.0}, "mu must be positive and finite, got -5.0"),
    ({"mu": 1e300}, "mu=1e+300 gives an expected count of "),
    ({"s_sim": -1.0}, "separation must be finite and nonnegative, got -1.0"),
])
def test_simulate_with_an_invalid_mu_or_s_sim_is_a_usage_error(
        tmp_path, capsys, measurement, setting, message):
    cfg = _write_cfg(tmp_path, "simbad.cfg", measurement=measurement, batches=2,
                     **setting)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    # a refused separation is named by its key, as the camera's refusals are
    key = f"s_sim={setting['s_sim']}: " if "s_sim" in setting else ""
    assert capsys.readouterr().err.startswith(f"invalid input: {key}{message}")
    assert not out.exists()


def test_simulate_with_a_negative_search_bound_is_a_usage_error(tmp_path, capsys):
    # separations are nonnegative; the count models clip s < 0 to 0
    cfg = _write_cfg(tmp_path, "simneg.cfg", family="plane", ktilde=2.0,
                     mu=100, batches=2, M=8, search_lo=-0.1, search_hi=1.5)
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "search interval must start at s >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_unreachable_tolerance_exits_nonconvergence(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "stall.cfg", s_min=1.0, s_max=1.0, s_points=1,
                     ktilde_grid="0", M=5)
    assert cli.main(["figure2", "--config", cfg, "--tol", "1e-30",
                     "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "numeric non-convergence" in err
    assert "estimate" in err


def test_readme_documents_the_current_schema():
    # the schema every output carries, and the newest line of the README's
    # per-schema list, are the one the outputs write
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    carried = re.findall(r"carries schema version (\d+) \(`schema=(\d+)`", text)
    newest = re.search(r"moved these outputs; .*? - (\d+): ", text)
    version = str(cli._SCHEMA_VERSION)
    assert carried == [(version, version)]
    assert newest and newest.group(1) == version


def test_adjudicate_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "adj.json"
    assert cli.main(["adjudicate", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 16
    assert doc["all_match"] is True
    vortex = doc["vortex_qfi_closed"]
    assert vortex["exactly_one_match"] is True
    assert vortex["selected"] == "psi_dependent"
    assert vortex["selected_matches"] is True
    geometry = doc["mode_geometry"]
    assert set(geometry) == {"tolerance", "grid", "max_deviation_per_scalar",
                             "resolved_signs", "matches"}
    assert geometry["tolerance"] == 1e-13
    assert geometry["matches"] is True
    deviations = geometry["max_deviation_per_scalar"]
    assert set(deviations) == {"delta", "sigma", "beta"}
    # roundoff of the quadrature: the fields at image points carry their
    # analytic gradients, so the check cannot pass vacuously
    assert all(dev < 1e-13 for dev in deviations.values()), deviations
    assert "output_path" not in doc["config"]


def test_simulate_spade_json(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.cfg", family="plane", ktilde=2.0,
                     s_sim=1.0, mu=2000, batches=3, M=8,
                     search_lo=0.5, search_hi=1.5, seed=77)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    report = doc["report"]
    assert report["method"] == "spade"
    assert report["seed"] == 77
    assert report["mu"] == 2000
    assert len(report["estimates"]) == 3
    assert report["ratio"] > 0.0
    assert report["crb"] == pytest.approx(
        report["empirical_variance"] / report["ratio"], rel=1e-12)
    assert 0.5 <= min(report["estimates"]) <= max(report["estimates"]) <= 1.5


def test_simulate_direct_imaging_smoke(tmp_path):
    cfg = _write_cfg(tmp_path, "simdi.cfg", family="plane", ktilde=2.0,
                     s_sim=1.0, mu=1000, batches=2, measurement="di",
                     search_lo=0.5, search_hi=1.5, seed=5)
    out = tmp_path / "di.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["method"] == "di"
    assert len(report["estimates"]) == 2


@pytest.mark.parametrize("family,s_sim", [("plane", 6.0)])
def test_simulate_direct_imaging_beyond_the_camera_is_a_usage_error(
        tmp_path, capsys, family, s_sim):
    # the 32-column camera's field of view grows with s_sim until its bins miss
    # the 2% Fisher-information bound; that is bad input, not a crash
    cfg = _write_cfg(tmp_path, "simfar.cfg", family=family, s_sim=s_sim,
                     measurement="di", search_lo=s_sim - 0.5,
                     search_hi=s_sim + 0.5)
    out = tmp_path / "far.json"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: s_sim={s_sim}: BinnedImager: ")
    assert "% from the continuum value (limit 2%)" in err
    assert not out.exists()


def test_spectral_dump(tmp_path):
    out1, out2 = tmp_path / "sp1.csv", tmp_path / "sp2.csv"
    assert cli.main(["spectral-dump", "--out", str(out1)]) == 0
    assert cli.main(["spectral-dump", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = _read_lines(out1)
    g_line = next(ln for ln in lines if ln.startswith("# g="))
    assert g_line.startswith("# g=0.4326760010672")
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "omega,phi_re,phi_im,phi_abs"
    data = [ln for ln in lines[header_idx + 1:] if ln]
    assert len(data) == 4096


def test_optimize_waist_command(tmp_path):
    cfg = _write_cfg(tmp_path, "waist.cfg", s_min=1.0, s_max=1.2, s_points=2)
    out = tmp_path / "waist.csv"
    assert cli.main(["optimize-waist", "--config", cfg, "--out", str(out)]) == 0
    lines = _read_lines(out)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "s,psi,a_opt,qfi_opt"
    first = lines[header_idx + 1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[2]) == pytest.approx(1.1040581162434564, abs=1e-5)
    # normalized by 2 kappa g^2
    assert float(first[3]) == pytest.approx(4.4071601947647272 / 2.0, rel=1e-8)


def test_convergence_reads_every_cutoff_from_one_table(tmp_path, monkeypatch):
    tables = []
    spade_table = fisher._spade_table

    def counted(amps, modes):
        tables.append(modes)
        return spade_table(amps, modes)

    monkeypatch.setattr(fisher, "_spade_table", counted)
    cfg = _write_cfg(tmp_path, "conv.cfg", s_min=0.0, s_max=3.0, s_points=4,
                     ktilde=1.5, kappa=0.8, g=1.3)
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    assert tables == [25]
    rows = _table(out)
    assert len(rows) == 4 * 5
    for row in rows:
        amps = image_amplitudes(PlaneWaveExcitation(ktilde=1.5),
                                EmitterScene(s=row["s"], g=1.3, kappa=0.8))
        assert row["fi_spade"] == fi_spade(amps, int(row["M"])).normalized_value


def test_csv_rows_render_every_cell_like_fmt(tmp_path):
    rows = [[0.1, 1e-300, -0.0, float("inf"), float("nan"), 3, "x", np.float64(2.5e17)],
            [1.0 / 3.0, 5e-324, 1e22, -2.0, 0.0, -7, True, np.float64(-1e-5)]]
    out = tmp_path / "t.csv"
    cli._write_csv(str(out), "figure2", cli.RunConfig(), list("abcdefgh"), rows)
    lines = _read_lines(out)
    assert lines[-len(rows) - 1:-1] == [",".join(cli._fmt(v) for v in row)
                                        for row in rows]


def test_raw_flag_switches_normalization(tmp_path):
    cfg = _write_cfg(tmp_path, "conv2.cfg", s_min=1.0, s_max=1.0, s_points=1,
                     ktilde=2.0)
    out_n = tmp_path / "norm.csv"
    out_r = tmp_path / "raw.csv"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out_n)]) == 0
    assert cli.main(["convergence", "--config", cfg, "--out", str(out_r),
                     "--raw"]) == 0

    def qfi_column(path):
        lines = _read_lines(path)
        header_idx = next(i for i, ln in enumerate(lines)
                          if not ln.startswith("#"))
        return float(lines[header_idx + 1].split(",")[4])

    # kappa = g = w = 1: raw = 2 x normalized
    assert qfi_column(out_r) == pytest.approx(2.0 * qfi_column(out_n), rel=1e-12)


@pytest.mark.skipif(shutil.which("carsfisher") is None,
                    reason="console script not on PATH")
def test_console_script_subprocess(tmp_path):
    cfg = _write_cfg(tmp_path, "conv.cfg", s_min=0.5, s_max=1.0, s_points=2,
                     ktilde=2.0)
    out = tmp_path / "conv.csv"
    proc = subprocess.run(
        ["carsfisher", "convergence", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert out.exists()
