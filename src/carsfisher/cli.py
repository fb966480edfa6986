"""Command-line front end.

Subcommands:

* figure2        — plane-wave sweep: QFI, direct-imaging FI (with its
                   Gauss-Kronrod error estimate, fi_di_err), SPADE FI vs s
* figure3        — vortex sweep over the vertical shift psi, with the
                   optimize-over-a envelope on the psi = 0 rows
* convergence    — SPADE FI vs mode cutoff M at fixed ktilde
* adjudicate     — compare every shipped closed form against the
                   general-path oracle and report which variants match
* simulate       — Monte Carlo estimation campaign (JSON report)
* spectral-dump  — normalized spectral mode Phi(omega) table
* optimize-waist — per-separation optimal vortex waist ratio

Configuration is a flat key=value text file; environment variables with the
CARSFISHER_ prefix override the file, and command-line flags override both.
An unknown key in the file or the environment is a configuration error, and
so is a key or a --seed, --modes, --tol or --raw flag that the command does
not read (simulate reads M only for SPADE, ktilde only for the plane wave,
a and psi only for the vortex); such a key is refused before any value is
checked.
Outputs are deterministic: a fixed config and seed reproduce files
byte-for-byte (sweeps run sequentially in input-grid order).  CSV files are
RFC-4180 records (CRLF, '.' decimals, 17 significant digits) preceded by
'#'-prefixed provenance comments carrying the schema version, tool version,
and the value of every configuration key the command reads (``_reads``),
as the JSON outputs' config object does.

Each command is a function of its configuration that opens no file.  The
table commands (figure2, figure3, convergence, spectral-dump,
optimize-waist) return their CSV table as (header, rows) or (header, rows,
comments); adjudicate and simulate return their JSON payload.  ``main``
renders the output with its provenance, writes it once, to --out or else
to the command's default file in the working directory (figure2.csv,
figure3.csv, convergence.csv, adjudication.json, simulation.json,
spectral.csv, waist.csv), and prints its path.

Exit codes: 0 success, 2 configuration error (an output file that cannot
be written included), 3 numeric non-convergence, 4 closed-form
adjudication mismatch (the report is still written and its path printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cache
from itertools import repeat

import numpy as np

from . import __version__
from .excitation import EmitterScene, PlaneWaveExcitation, VortexExcitation, image_amplitudes
from .fisher import (
    _spade_running_fi,
    fi_direct,
    fi_spade,
    optimize_waist,
    qfi_plane_closed,
    qfi_separation,
    spade_collinear_closed,
    vortex_closed_variants,
)
from .montecarlo import BinnedImager, run_experiment, spade_count_model
from .numerics import ConvergenceError, integrate_1d_many
from .psf_modes import _psf_gram, _psf_points
from .spectral import PulseSpectrum, RamanResonance, _sampled_weight

_SCHEMA_VERSION = 16
_CONVERGENCE_M = (5, 10, 15, 20, 25)


class ConfigError(Exception):
    """Invalid configuration input."""


@dataclasses.dataclass
class RunConfig:
    """Flat run configuration; every field can come from file, env, or flag."""

    family: str = "plane"
    s_min: float = 0.01
    s_max: float = 3.0
    s_points: int = 120
    ktilde_grid: tuple = (0.0, 1.0, 2.0, 4.0)
    ktilde: float = 2.0
    a: float = math.sqrt(2.0) / 2.0
    a_min: float = 0.05
    a_max: float = 5.0
    psi_grid: tuple = (0.0, 0.1, 0.2, 0.3)
    psi: float = 0.0
    M: int = 10
    output_path: str = ""
    seed: int = 20260817
    tol: float = 1e-8
    raw: bool = False
    kappa: float = 1.0
    g: float = 1.0
    measurement: str = "spade"
    mu: float = 1e4
    batches: int = 50
    s_sim: float = 1.0
    search_lo: float = 0.5
    search_hi: float = 1.5
    omega_vib: float = 10.0
    gamma_vib: float = 0.5
    weight: float = 1.0
    pump_center: float = 100.0
    pump_bandwidth: float = 1.0
    pump_amplitude: float = 1.0
    stokes_center: float = 90.0
    stokes_bandwidth: float = 1.0
    stokes_amplitude: float = 1.0

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if self.family not in ("plane", "vortex"):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.measurement not in ("spade", "di"):
            raise ConfigError(f"unknown measurement {self.measurement!r}")
        if self.s_points < 1:
            raise ConfigError("s_points must be at least 1")
        if self.s_min < 0.0 or self.s_max < self.s_min:
            raise ConfigError("need 0 <= s_min <= s_max")
        if not self.ktilde_grid or not self.psi_grid:
            raise ConfigError("parameter grids must be nonempty")
        if self.M < 0:
            raise ConfigError("M must be nonnegative")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError("kappa must lie in (0, 1]")
        if not self.g > 0.0:
            raise ConfigError("g must be positive")
        if not 0.0 < self.a_min < self.a_max:
            raise ConfigError("need 0 < a_min < a_max")
        if self.batches < 2:
            raise ConfigError("batches must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.search_lo < self.search_hi:
            raise ConfigError("need 0 <= search_lo < search_hi: the search interval "
                              "must start at s >= 0 and be increasing")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float_tuple(text: str) -> tuple:
    items = [p for p in (piece.strip() for piece in text.split(",")) if p]
    if not items:
        raise ConfigError("empty grid")
    return tuple(float(p) for p in items)


# field name -> type of its default; a setting's text parses to that type
_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def _apply_setting(cfg: RunConfig, key: str, raw_value: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    parser = {bool: _parse_bool, tuple: _parse_float_tuple}.get(kind, kind)
    try:
        setattr(cfg, key, parser(raw_value))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw_value!r}") from exc


def load_config(path: str | None, env=None, overrides=None) -> RunConfig:
    """Build a RunConfig with precedence flags > environment > file.

    An unknown key in the file, or a CARSFISHER_ variable in ``env`` that
    names no key, raises ConfigError; values are not checked
    (``RunConfig.validate``).  The returned config carries explicit_keys,
    the set of field names that were actually supplied (rather than left
    at their defaults), so a command can refuse those it does not read
    before any value is checked.
    """
    cfg = RunConfig()
    explicit: set[str] = set()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            _apply_setting(cfg, key.strip(), value.strip())
            explicit.add(key.strip())
    env = os.environ if env is None else env
    env_keys = {"CARSFISHER_" + key.upper(): key for key in _FIELD_TYPES}
    unknown = sorted(k for k in env if k.startswith("CARSFISHER_") and k not in env_keys)
    if unknown:
        raise ConfigError(f"unknown configuration variable {unknown[0]!r} in the environment")
    for env_key, key in env_keys.items():
        if env_key in env:
            _apply_setting(cfg, key, env[env_key])
            explicit.add(key)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
            explicit.add(key)
    cfg.explicit_keys = frozenset(explicit)
    return cfg


def _fmt(x) -> str:
    """A value as a CSV shows it: a float to 17 significant digits, a tuple
    comma-joined."""
    if isinstance(x, tuple):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _reads(command: str, cfg: RunConfig) -> set[str]:
    """The configuration keys ``command`` reads at ``cfg`` (``_COMMANDS``):
    a simulate campaign reads M only for SPADE, ktilde only for the plane
    wave, and a and psi only for the vortex."""
    reads = _COMMANDS[command][1]
    if command != "simulate":
        return reads
    unread = {"plane": {"a", "psi"}, "vortex": {"ktilde"}}.get(cfg.family, set())
    return reads - unread - ({"M"} if cfg.measurement == "di" else set())


def _config_items(command: str, cfg: RunConfig):
    """(name, value) of each key the command reads (``_reads``), in field
    order: the inputs that shaped its output, and no others.  No command
    reads output_path: where a file lives is not part of its content."""
    reads = _reads(command, cfg)
    return [(name, getattr(cfg, name)) for name in _FIELD_TYPES if name in reads]


def _csv_text(command: str, cfg: RunConfig, header: list[str], rows: list,
              comments: tuple[str, ...] = ()) -> str:
    """The CSV file of a table: provenance comments, header, one line per row."""
    lines = [
        f"# carsfisher {__version__} schema={_SCHEMA_VERSION}",
        f"# command={command}",
        "# config " + " ".join(f"{name}={_fmt(value)}"
                               for name, value in _config_items(command, cfg)),
    ]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(",".join(header))
    if rows:
        # one % template per table, as _fmt renders each cell of the first row
        template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
        lines.extend(template % tuple(row) for row in rows)
    return "\r\n".join(lines) + "\r\n"


def _json_text(command: str, cfg: RunConfig, payload: dict) -> str:
    """The JSON document of a payload: its keys beside the provenance
    keys, all sorted."""
    document = {
        "schema_version": _SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": dict(_config_items(command, cfg)),
    }
    document.update(payload)
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _s_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.s_min, cfg.s_max, cfg.s_points)


def _pick(report, cfg: RunConfig) -> list[float]:
    """A curve report's values as the output shows them."""
    return (report.value if cfg.raw else report.normalized_value).tolist()


def _pick_raw(raw, cfg: RunConfig) -> list[float]:
    """Raw values (units 1/w^2) as the output shows them."""
    return (raw if cfg.raw else raw / (2.0 * cfg.kappa * cfg.g**2)).tolist()


def _ratio(value, qfi) -> np.ndarray:
    """value / qfi where the QFI is positive, else 0."""
    return np.divide(value, qfi, out=np.zeros_like(value), where=qfi > 0.0)


def _curve(exc, s_grid, cfg: RunConfig):
    """The amplitude record of one sweep curve over the separations s_grid."""
    return image_amplitudes(exc, EmitterScene(s=np.asarray(s_grid, dtype=float),
                                              g=cfg.g, kappa=cfg.kappa))


def cmd_figure2(cfg: RunConfig) -> tuple:
    """Plane-wave FI sweep: the table of one row per (ktilde, s), with a
    note on the ktilde grid."""
    s_grid = _s_grid(cfg)
    rows = []
    for kt in cfg.ktilde_grid:
        curve = _curve(PlaneWaveExcitation(ktilde=float(kt)), s_grid, cfg)
        di = fi_direct(curve, abs_tol=cfg.tol)
        rows += zip(s_grid.tolist(), repeat(float(kt)), _pick(qfi_separation(curve), cfg),
                    _pick(di, cfg), _pick_raw(di.error_estimate, cfg),
                    _pick(fi_spade(curve, cfg.M), cfg), repeat(cfg.M))
    return (["s", "ktilde", "qfi", "fi_di", "fi_di_err", "fi_spade_M", "M"], rows,
            ("note: the ktilde grid is a tool default; "
             "override it with the ktilde_grid key",))


def cmd_figure3(cfg: RunConfig) -> tuple:
    """Vortex FI sweep: the table of one row per (psi, s), with the
    waist-optimized envelope at psi=0 on every row."""
    s_grid = _s_grid(cfg)
    # waist-optimized envelope, computed on the psi = 0 axis
    a_opt, q_opt = optimize_waist(0.0, s_grid, (cfg.a_min, cfg.a_max),
                                  kappa=cfg.kappa, g=cfg.g)
    envelope = a_opt.tolist(), _pick_raw(q_opt, cfg)
    rows = []
    for psi in cfg.psi_grid:
        curve = _curve(VortexExcitation(a=cfg.a, psi=float(psi)), s_grid, cfg)
        qfi, di = qfi_separation(curve), fi_direct(curve, abs_tol=cfg.tol)
        rows += zip(s_grid.tolist(), repeat(float(psi)), repeat(cfg.a), _pick(qfi, cfg),
                    _pick(di, cfg), _pick_raw(di.error_estimate, cfg),
                    _pick(fi_spade(curve, cfg.M), cfg), _ratio(di.value, qfi.value).tolist(),
                    *envelope)
    return (["s", "psi", "a", "qfi", "fi_di", "fi_di_err", "fi_spade_M",
             "di_over_qfi", "a_opt", "qfi_opt"], rows,
            ("a_opt/qfi_opt: waist-optimized envelope "
             "computed at psi=0, repeated for each s",))


def cmd_convergence(cfg: RunConfig) -> tuple:
    """SPADE FI against mode cutoff M at fixed ktilde: the table of one row
    per (s, M).

    One SPADE table at the largest cutoff serves every cutoff: each row's
    FI is a running sum over its modes, as ``fi_spade`` reports it.
    """
    s_grid = _s_grid(cfg)
    curve = _curve(PlaneWaveExcitation(ktilde=cfg.ktilde), s_grid, cfg)
    norm = _spade_running_fi(curve, max(_CONVERGENCE_M))[:, list(_CONVERGENCE_M)]  # s x M
    value = norm * (2.0 * cfg.kappa * cfg.g**2)
    qfi = qfi_separation(curve)
    rows = [(s, cfg.ktilde, m_cut, fi, q, ratio)
            for s, q, fi_row, ratio_row in zip(
                s_grid.tolist(), _pick(qfi, cfg), (value if cfg.raw else norm).tolist(),
                _ratio(value, qfi.value[:, None]).tolist())
            for m_cut, fi, ratio in zip(_CONVERGENCE_M, fi_row, ratio_row)]
    return ["s", "ktilde", "M", "fi_spade", "qfi", "ratio"], rows


def _closed_form_record(tolerance: float, pairs) -> dict:
    """The record of a closed form checked against the general path: the
    worst deviation over the (general, closed) pairs of normalized-value
    arrays, and whether it stays below the tolerance."""
    worst = max(float(np.max(np.abs(general - closed))) for general, closed in pairs)
    return {"max_deviation": worst, "matches": worst < tolerance}


def _adjudicate_plane() -> dict:
    tolerance, s_grid = 1e-10, np.linspace(0.01, 3.0, 120)
    pairs = [(qfi_separation(image_amplitudes(PlaneWaveExcitation(ktilde=kt),
                                              EmitterScene(s=s_grid))).normalized_value,
              qfi_plane_closed(kt, s_grid).normalized_value) for kt in (0.0, 1.0, 2.0, 4.0)]
    return {"tolerance": tolerance, "grid": "ktilde in {0,1,2,4} x 120 s-points in [0.01, 3]",
            **_closed_form_record(tolerance, pairs)}


def _adjudicate_vortex() -> dict:
    tolerance, s_grid = 1e-9, np.linspace(0.05, 3.0, 60)
    # (general-path values, {candidate: closed-form values}) per (a, psi)
    cases = [(qfi_separation(image_amplitudes(VortexExcitation(a=a, psi=psi),
                                              EmitterScene(s=s_grid))).normalized_value,
              vortex_closed_variants(a, psi, s_grid))
             for a in (0.5, math.sqrt(2.0) / 2.0, 1.0) for psi in (0.0, 0.2)]
    candidates = {name: _closed_form_record(tolerance, [(general, closed[name])
                                                        for general, closed in cases])
                  for name in ("psi_dependent", "psi_independent")}
    return {
        "tolerance": tolerance,
        "grid": "a in {0.5, sqrt(2)/2, 1} x psi in {0, 0.2} x 60 s-points in [0.05, 3]",
        "candidates": candidates,
        "exactly_one_match": sum(c["matches"] for c in candidates.values()) == 1,
        "selected": "psi_dependent",
        "selected_matches": candidates["psi_dependent"]["matches"],
    }


# the Gram entries checked: name -> the coefficients over (u1, u1', u2, u2')
# of the two fields overlapped
_GRAM_ENTRIES = {
    "delta": ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),   # <u1|u2>
    "sigma": ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),   # <u1|u2'>
    "beta": ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),    # <u1'|u2'>
}


def _quadrature_gram(s_values) -> dict:
    """Each entry of _GRAM_ENTRIES at each separation, {name: array}, by
    quadrature of the two fields at image points (``psf_modes._psf_points``),
    without the Gram form.  Each overlap is an x-integral on y = 0 times the
    common y-integral and PSF prefactor, which dividing by the computed
    <u1|u1> at s = 0 (the first member) cancels.  One lockstep batch serves
    every member.
    """
    unit = (1.0, 0.0, 0.0, 0.0)
    members = [(0.0, unit, unit)] + [(s, c, d) for c, d in _GRAM_ENTRIES.values()
                                     for s in s_values]
    s, c, d = (np.array(column) for column in zip(*members))
    half_s = s[:, None] / 2.0

    def integrand(rows, x):
        d1, d2 = x + half_s[rows], x - half_s[rows]
        points = (d1, d2, np.exp(-d1 ** 2), np.exp(-d2 ** 2))
        return (_psf_points(c[rows].T[:, :, None], *points)
                * _psf_points(d[rows].T[:, :, None], *points))

    half = 8.0 + half_s[:, 0]
    values, _ = integrate_1d_many(integrand, -half, half, 1e-10)
    entries = (values[1:] / values[0]).reshape(len(_GRAM_ENTRIES), len(s_values))
    return dict(zip(_GRAM_ENTRIES, entries))


def _adjudicate_geometry() -> dict:
    s_values = np.array([0.3, 1.0, 2.0])
    quad = _quadrature_gram(s_values)
    worst = {name: float(np.max(np.abs(_psf_gram(s_values, c, d) - quad[name])))
             for name, (c, d) in _GRAM_ENTRIES.items()}
    return {
        "tolerance": 1e-13,
        "grid": "s in {0.3, 1.0, 2.0}, Gram form vs quadrature of the PSF copies",
        "max_deviation_per_scalar": worst,
        "resolved_signs": {
            "sigma": "<u1|u2'> = s delta, nonnegative for s >= 0",
            "beta": "<u1'|u2'> = (1 - s^2) delta, 1 at s = 0",
        },
        "matches": max(worst.values()) < 1e-13,
    }


def _adjudicate_spade_closed() -> dict:
    tolerance, s_grid = 1e-8, np.linspace(0.05, 3.0, 60)
    curve = image_amplitudes(PlaneWaveExcitation(ktilde=0.0), EmitterScene(s=s_grid))
    pairs = [(fi_spade(curve, 30).normalized_value,
              spade_collinear_closed(s_grid).normalized_value)]
    return {"tolerance": tolerance, "grid": "ktilde=0, 60 s-points in [0.05, 3], M=30",
            **_closed_form_record(tolerance, pairs)}


def cmd_adjudicate(cfg: RunConfig) -> dict:
    """Compare every shipped closed form against the general-path oracle:
    the payload of one record per form, and all_match, False when any
    shipped form fails (``main`` then writes it and exits 4)."""
    plane = _adjudicate_plane()
    vortex = _adjudicate_vortex()
    geometry = _adjudicate_geometry()
    spade = _adjudicate_spade_closed()
    passed = (plane["matches"] and vortex["exactly_one_match"]
              and vortex["selected_matches"] and geometry["matches"]
              and spade["matches"])
    return {
        "plane_qfi_closed": plane,
        "vortex_qfi_closed": vortex,
        "mode_geometry": geometry,
        "spade_collinear_closed": spade,
        "all_match": passed,
    }


def cmd_simulate(cfg: RunConfig) -> dict:
    """Monte Carlo campaign: sample counts, estimate s, compare to the CRB;
    the payload is the campaign's report with the scene's n_total and the
    measurement."""
    if cfg.family == "vortex":
        exc = VortexExcitation(a=cfg.a, psi=cfg.psi)
    else:
        exc = PlaneWaveExcitation(ktilde=cfg.ktilde)
    s = cfg.s_sim
    # a separation the scene or the camera refuses is named by its key
    try:
        n_total = image_amplitudes(exc, EmitterScene(s=s, g=cfg.g, kappa=cfg.kappa)).n_total
        if cfg.measurement == "spade":
            model = spade_count_model(exc, cfg.M, g=cfg.g, kappa=cfg.kappa)
        else:
            model = BinnedImager(exc, s, g=cfg.g, kappa=cfg.kappa).expectations
    except ValueError as err:
        raise ValueError(f"s_sim={s}: {err}") from err
    report = run_experiment(model, s, cfg.mu, cfg.batches, cfg.seed,
                            (cfg.search_lo, cfg.search_hi))
    return {"report": {**dataclasses.asdict(report), "n_total": n_total,
                       "method": cfg.measurement}}


def cmd_spectral_dump(cfg: RunConfig) -> tuple:
    """The table of the normalized spectral mode Phi(omega), with the
    coupling strength g as a comment."""
    res = RamanResonance(omega_vib=cfg.omega_vib, gamma_vib=cfg.gamma_vib,
                         polarizability_weight=cfg.weight)
    pump = PulseSpectrum(center=cfg.pump_center, bandwidth=cfg.pump_bandwidth,
                         amplitude=cfg.pump_amplitude)
    stokes = PulseSpectrum(center=cfg.stokes_center,
                           bandwidth=cfg.stokes_bandwidth,
                           amplitude=cfg.stokes_amplitude)
    grid, weight, g = _sampled_weight(res, pump, stokes)
    values = weight / g
    re, im = values.real, values.imag
    # np.hypot rounds as the scalar abs(v) does; np.abs(values) does not
    rows = np.column_stack((grid, re, im, np.hypot(re, im))).tolist()
    return ["omega", "phi_re", "phi_im", "phi_abs"], rows, (f"g={g:.17g}",)


def cmd_optimize_waist(cfg: RunConfig) -> tuple:
    """The table of the optimal vortex waist ratio a*(s), one row per s."""
    s_grid = _s_grid(cfg)
    a_opt, q_opt = optimize_waist(cfg.psi, s_grid, (cfg.a_min, cfg.a_max),
                                  kappa=cfg.kappa, g=cfg.g)
    rows = list(zip(s_grid.tolist(), repeat(cfg.psi), a_opt.tolist(), _pick_raw(q_opt, cfg)))
    return ["s", "psi", "a_opt", "qfi_opt"], rows


_SWEEP_KEYS = {"s_min", "s_max", "s_points", "kappa", "g", "raw"}
# command -> its function, the configuration keys it reads (a simulate
# campaign fewer, ``_reads``), which its output records, and the file it
# writes without --out (every command also takes output_path, never recorded)
_COMMANDS = {
    "figure2": (cmd_figure2, _SWEEP_KEYS | {"ktilde_grid", "M", "tol"}, "figure2.csv"),
    "figure3": (cmd_figure3, _SWEEP_KEYS | {"psi_grid", "a", "a_min", "a_max",
                                            "M", "tol"}, "figure3.csv"),
    "convergence": (cmd_convergence, _SWEEP_KEYS | {"ktilde"}, "convergence.csv"),
    "adjudicate": (cmd_adjudicate, set(), "adjudication.json"),
    "simulate": (cmd_simulate, {"family", "ktilde", "a", "psi", "s_sim", "kappa",
                                "g", "measurement", "M", "mu", "batches", "seed",
                                "search_lo", "search_hi"}, "simulation.json"),
    "spectral-dump": (cmd_spectral_dump, {
        "omega_vib", "gamma_vib", "weight", "pump_center", "pump_bandwidth",
        "pump_amplitude", "stokes_center", "stokes_bandwidth", "stokes_amplitude"},
        "spectral.csv"),
    "optimize-waist": (cmd_optimize_waist, _SWEEP_KEYS | {"psi", "a_min", "a_max"},
                       "waist.csv"),
}
# the configuration key each of these flags sets
_FLAG_KEYS = {"seed": "seed", "modes": "M", "tol": "tol", "raw": "raw"}


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carsfisher",
        description="Fisher-information limits for two-emitter separation "
                    "estimation in coherent Raman imaging")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--modes", type=int, default=None,
                        help="SPADE mode cutoff M")
    parser.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance override")
    parser.add_argument("--raw", action="store_true", default=None,
                        help="emit raw values instead of w^2 F/(2 kappa g^2)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"output_path": args.out}
    overrides.update((key, getattr(args, flag)) for flag, key in _FLAG_KEYS.items())
    command, _, default_file = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, overrides=overrides)
        ignored = sorted(cfg.explicit_keys - _reads(args.command, cfg) - {"output_path"})
        if ignored:
            # name a setting by its flag where a flag supplied it
            flags = {key: f"--{flag}" for flag, key in _FLAG_KEYS.items()
                     if getattr(args, flag) is not None}
            raise ConfigError(f"{args.command} does not read "
                              f"{', '.join(flags.get(key, key) for key in ignored)}")
        cfg.validate()
        output = command(cfg)
        path = cfg.output_path or default_file
        text = (_json_text(args.command, cfg, output) if isinstance(output, dict)
                else _csv_text(args.command, cfg, *output))
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric non-convergence: {exc} (estimate {exc.estimate})",
              file=sys.stderr)
        return 3
    print(path)
    # a failed adjudication still writes its report
    return 4 if isinstance(output, dict) and output.get("all_match") is False else 0


if __name__ == "__main__":
    sys.exit(main())
