"""Output checks for the benchmark's commands.

Every check reads only the files a command wrote and recomputes what it
needs with numpy; nothing here imports carsfisher, so a defect in the code
under test cannot hide itself by also breaking its check.  Each function
returns a list of ``(check_name, passed, detail)`` tuples.

The references assume the default physical configuration (g = kappa = w = 1,
default spectral and Monte Carlo keys); the benchmark never overrides those.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Values the seed commit printed at its default configuration.  crb and
# n_total do not depend on the RNG seed, so they hold for every workload seed.
SEED_SPECTRAL_G = 0.43267600106726345
SEED_SIMULATE = {
    "spade": {"crb": 6.085915847349779e-06, "n_total": 1.4951883693834729},
    "di": {"crb": 1.4535776451633993e-05, "n_total": 1.4951883693834729},
}

QFI_CLOSED_TOL = 1e-9      # general-path QFI against its closed form
DI_TOL = 1e-8              # the CLI's default tol on the normalized DI value
BOUND_SLACK = 1e-9         # roundoff allowed when checking FI <= QFI
REFERENCE_REL_TOL = 1e-8   # seed-reference scalars

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
# panels graded toward the midpoint, where a near-dark interference fringe
# (ktilde * s close to an odd multiple of pi) makes the integrand vary on
# scales far below the uniform panel width
_GRADED = np.logspace(-9.0, 0.0, 37)


def read_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """(comment lines, column name -> values) of a carsfisher CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line.rstrip("\r\n") for line in fh]
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    header = body[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    return comments, {name: data[:, i] for i, name in enumerate(header)}


def _check(name: str, passed: bool, detail: str):
    return (name, bool(passed), detail)


# ---------------------------------------------------------------------------
# independent physics: closed-form QFIs and a 1D direct-imaging reference
# ---------------------------------------------------------------------------

def plane_qfi_closed(kt: float, s: float) -> float:
    value = 1.0 + kt * kt + math.exp(-s * s / 2.0) * (
        (s * s - 1.0 - kt * kt) * math.cos(kt * s) + 2.0 * kt * s * math.sin(kt * s))
    return max(value, 0.0)


def vortex_qfi_closed(a: float, psi: float, s: float) -> float:
    a2, s2, p2 = a * a, s * s, psi * psi
    poly = s2 * s2 + s2 * (4.0 * p2 + a2 * (a2 - 4.0)) + 4.0 * a2 * a2 * (1.0 + p2)
    sub = (s2 * s2 * (a2 + 1.0) ** 2
           - s2 * (a2 * (5.0 * a2 + 4.0) + 4.0 * (a2 + 1.0) ** 2 * p2)
           + 4.0 * a2 * a2 * (p2 + 1.0))
    pref = math.e / (2.0 * a2 ** 3) * math.exp(-s2 / (2.0 * a2) - 2.0 * p2 / a2)
    return max(pref * (poly - math.exp(-s2 / 2.0) * sub), 0.0)


def _emission(family: str, param: float, psi: float, x: float):
    """Emission amplitude over -i g and its x-derivative at (x, 0)."""
    if family == "plane":
        value = complex(math.cos(param * x), math.sin(param * x))
        return value, 1j * param * value
    a = param
    envelope = math.exp(-(x * x + psi * psi) / (a * a))
    norm = math.sqrt(2.0 * math.e) / a
    core = complex(x, psi)
    return norm * core * envelope, norm * envelope * (1.0 - 2.0 * x * core / (a * a))


def di_reference(family: str, param: float, psi: float, s: float) -> float:
    """Normalized direct-imaging FI from the y-separable 1D integral.

    The image is e(x) exp(-y^2) for both emitters on y = 0, so the 2D
    integral of (d_s I)^2 / I equals sqrt(pi/2) * (2/pi) times a 1D one,
    done here with a fixed composite Gauss-Legendre rule.  Emitters sit at
    x = -+s/2, the integration range is the same +-(s/2 + 8) as the CLI's.
    """
    x1, x2 = -s / 2.0, s / 2.0
    a1, g1 = _emission(family, param, psi, x1)
    a2, g2 = _emission(family, param, psi, x2)
    scale = 1.0 / math.sqrt(2.0)
    a1, a2, g1, g2 = a1 * scale, a2 * scale, g1 * scale, g2 * scale
    half = s / 2.0 + 8.0
    edges = np.unique(np.concatenate([np.linspace(-half, half, 97), _GRADED, -_GRADED]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    x = (mids[:, None] + halves[:, None] * _GL_X[None, :]).ravel()
    w = (halves[:, None] * _GL_W[None, :]).ravel()
    e1 = np.exp(-(x - x1) ** 2)
    e2 = np.exp(-(x - x2) ** 2)
    amp = a1 * e1 + a2 * e2
    # d/ds moves emitter 1 by -s/2 and emitter 2 by +s/2
    damp = 0.5 * (g2 * e2 - g1 * e1) - (a1 * (x - x1) * e1 - a2 * (x - x2) * e2)
    inten = np.abs(amp) ** 2
    d_inten = 2.0 * (np.conj(amp) * damp).real
    ratio = np.divide(d_inten ** 2, inten, out=np.zeros_like(inten), where=inten > 0.0)
    return math.sqrt(2.0 / math.pi) * float(w @ ratio)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _sweep_checks(cols, param_col: str, closed, reference):
    """closed(p, s) is the QFI closed form and reference(p, s) the 1D DI
    value, for the swept parameter p of the column param_col."""
    s, qfi, params = cols["s"], cols["qfi"], cols[param_col]
    worst_closed = max(abs(q - closed(p, si)) for si, p, q in zip(s, params, qfi))
    excess_di = float(np.max(cols["fi_di"] - qfi))
    excess_spade = float(np.max(cols["fi_spade_M"] - qfi))
    worst_ref = max(abs(di - reference(p, si)) for si, p, di in zip(s, params, cols["fi_di"]))
    return [
        _check("qfi_matches_closed_form", worst_closed <= QFI_CLOSED_TOL,
               f"max |qfi - closed| = {worst_closed:.3e}"),
        _check("fi_di_below_qfi", excess_di <= DI_TOL,
               f"max fi_di - qfi = {excess_di:.3e}"),
        _check("fi_spade_below_qfi", excess_spade <= BOUND_SLACK,
               f"max fi_spade_M - qfi = {excess_spade:.3e}"),
        _check("fi_di_matches_1d_reference", worst_ref <= DI_TOL,
               f"max |fi_di - ref| = {worst_ref:.3e}"),
    ]


def check_figure2(path: str):
    _, cols = read_csv(path)
    return _sweep_checks(cols, "ktilde", plane_qfi_closed,
                         lambda kt, s: di_reference("plane", kt, 0.0, s))


def check_figure3(path: str):
    _, cols = read_csv(path)
    a = float(cols["a"][0])
    out = _sweep_checks(cols, "psi", lambda psi, s: vortex_qfi_closed(a, psi, s),
                        lambda psi, s: di_reference("vortex", a, psi, s))
    axis = cols["psi"] == 0.0
    shortfall = float(np.max(cols["qfi"][axis] - cols["qfi_opt"][axis], initial=0.0))
    out.append(_check("waist_envelope_dominates", shortfall <= BOUND_SLACK,
                      f"max qfi(psi=0) - qfi_opt = {shortfall:.3e}"))
    return out


def check_convergence(path: str):
    _, cols = read_csv(path)
    worst_drop = 0.0
    for s in np.unique(cols["s"]):
        rows = np.flatnonzero(cols["s"] == s)
        order = rows[np.argsort(cols["M"][rows])]
        fi = cols["fi_spade"][order]
        worst_drop = max(worst_drop, float(np.max(fi[:-1] - fi[1:], initial=0.0)))
    max_ratio = float(np.max(cols["ratio"]))
    return [
        _check("spade_monotone_in_M", worst_drop <= BOUND_SLACK,
               f"largest decrease = {worst_drop:.3e}"),
        _check("spade_ratio_at_most_one", max_ratio <= 1.0 + BOUND_SLACK,
               f"max ratio = {max_ratio:.17g}"),
    ]


def check_spectral(path: str):
    comments, cols = read_csv(path)
    g = next(float(c[2:]) for c in comments if c.startswith("g="))
    rel = abs(g - SEED_SPECTRAL_G) / SEED_SPECTRAL_G
    omega, power = cols["omega"], cols["phi_abs"] ** 2
    step = omega[1] - omega[0]
    norm = step * (power.sum() - 0.5 * (power[0] + power[-1])) / (2.0 * math.pi)
    return [
        _check("g_matches_seed", rel <= REFERENCE_REL_TOL, f"relative deviation {rel:.3e}"),
        _check("phi_unit_norm", abs(norm - 1.0) <= 1e-6, f"|int |phi|^2 - 1| = {abs(norm - 1.0):.3e}"),
    ]


def check_adjudicate(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [_check("all_match", doc.get("all_match") is True, f"all_match={doc.get('all_match')}")]


def check_simulate(path: str, measurement: str, seed: int):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg, report = doc["config"], doc["report"]
    est = np.asarray(report["estimates"], dtype=float)
    inside = (len(est) == cfg["batches"] and bool(np.all(np.isfinite(est)))
              and bool(np.all((est >= cfg["search_lo"]) & (est <= cfg["search_hi"]))))
    ref = SEED_SIMULATE[measurement]
    rel = max(abs(report[key] - ref[key]) / ref[key] for key in ("crb", "n_total"))
    return [
        _check("estimates_finite_in_interval", inside,
               f"{len(est)} estimates in [{est.min():.6f}, {est.max():.6f}]"),
        _check("crb_and_n_total_match_seed", rel <= REFERENCE_REL_TOL,
               f"max relative deviation {rel:.3e}"),
        _check("report_method_and_seed", report["method"] == measurement and report["seed"] == seed,
               f"method={report['method']} seed={report['seed']}"),
    ]
