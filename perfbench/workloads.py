"""The benchmark's workloads: CLI operations, seeded inputs and output checks.

Each workload is a list of ``Op``s.  An op is one ``conemult.cli.main(argv)``
call; the runner appends ``--out DIR`` and, after the call, passes the
parsed ``summary.json`` and the output directory to the op's check, which
returns a list of problems (empty when the output is correct).

Why each workload exists, and which layers it stresses, is in README.md.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
# ROADMAP's tolerance for results of a changed numerical route
REL_TOL = 1e-6

GRID_EXTENT = 16.0
GRID_RESOLUTION = 64
FIELD_BUMPS = 6
LORENTZ_SAMPLES = 200_000
LORENTZ_P = 1.5


@dataclass
class Op:
    key: str
    argv: list
    check: object       # (summary, outdir) -> list of problem strings

    @property
    def subcommand(self):
        return self.argv[0]


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def dig(obj, path):
    """Follow a '/'-separated path of dict keys and list indices."""
    for part in path.split("/"):
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def recorded(values):
    """Check that summary values stay within REL_TOL of the recorded ones."""
    def check(summary, outdir):
        problems = []
        for path, want in values.items():
            got = dig(summary, path)
            if not rel_err(got, want) <= REL_TOL:
                problems.append(f"{path} = {got!r}, recorded {want!r}")
        return problems
    return check


def all_of(*checks):
    def check(summary, outdir):
        return [p for c in checks for p in c(summary, outdir)]
    return check


def gate(description, predicate):
    def check(summary, outdir):
        return [] if predicate(summary) else [f"gate failed: {description}"]
    return check


# ---------------------------------------------------------------------------
# workloads


def wave_ops(seed, workdir, expected):
    """wave-check at its default (d=3, n=3..8) plus d=4 over n=3..6."""
    l1_gate = gate("l1_ratio <= 3", lambda s: s["l1_ratio"] <= 3.0)
    return [
        Op("wave-check-d3", ["wave-check"],
           all_of(l1_gate,
                  gate("decay_rate >= 2", lambda s: s["decay_rate"] >= 2.0),
                  recorded(expected["wave-check-d3"]))),
        # at d=4 the error sup only starts to decay past n=6, so the
        # decay-rate gate (stated for d=3, n=3..8) is not applied here
        Op("wave-check-d4", ["wave-check", "--dim", "4", "--n-hi", "6"],
           all_of(l1_gate, recorded(expected["wave-check-d4"]))),
    ]


def _shell_checks(summary, outdir):
    problems = []
    bound = summary["estimate"]["lower_bound"]
    if not (math.isfinite(bound) and bound > 0):
        problems.append(f"lower bound {bound!r} is not finite and positive")
    ratios = np.loadtxt(os.path.join(outdir, "shell_l1.csv"), delimiter=",",
                        skiprows=1, usecols=1, ndmin=1)
    spread = ratios.max() / ratios.min()
    if not spread <= 1.2:
        problems.append(f"shell_l1_ratios spread {spread:.4f} > 1.2")
    return problems


def shells_ops(seed, workdir, expected):
    """sph-probe at its default, and on a 64-shell grid out to r=16."""
    return [
        Op("sph-probe-16", ["sph-probe", "--seed", str(seed)], _shell_checks),
        Op("sph-probe-64", ["sph-probe", "--shells", "64", "--r-hi", "16",
                            "--seed", str(seed)], _shell_checks),
    ]


def _br_scan_gates(summary, outdir):
    problems = []
    for row in summary["per_p"]:
        if not abs(row["estimate"] - row["prediction"]) <= 0.15:
            problems.append(f"p={row['p']}: estimate {row['estimate']} vs "
                            f"prediction {row['prediction']}")
    for lam, fit in summary["decay_fits"].items():
        if not fit["exponent"] >= fit["target"] - 0.1:
            problems.append(f"decay fit at lam={lam}: exponent "
                            f"{fit['exponent']} < target {fit['target']} - 0.1")
    return problems


def scan_ops(seed, workdir, expected):
    """br-scan and both characterize modes, all at their defaults."""
    return [
        Op("br-scan", ["br-scan"],
           all_of(_br_scan_gates, recorded(expected["br-scan"]))),
        Op("characterize-profile", ["characterize", "--mode", "profile"],
           recorded(expected["characterize-profile"])),
        Op("characterize-symbol", ["characterize", "--mode", "symbol"],
           recorded(expected["characterize-symbol"])),
    ]


def make_field(seed):
    """A smooth, localized complex field: modulated Gaussian bumps."""
    rng = np.random.default_rng([seed, 1])
    x = -0.5 * GRID_EXTENT + (GRID_EXTENT / GRID_RESOLUTION) * np.arange(
        GRID_RESOLUTION)
    coords = np.meshgrid(x, x, x, indexing="ij", sparse=True)
    values = np.zeros((GRID_RESOLUTION,) * 3, dtype=complex)
    for _ in range(FIELD_BUMPS):
        center = rng.uniform(-1.5, 1.5, 3)
        width = rng.uniform(0.4, 0.8)
        wave = rng.uniform(-1.0, 1.0, 3)
        amp = complex(rng.normal(), rng.normal())
        rsq = sum((c - c0) ** 2 for c, c0 in zip(coords, center))
        phase = sum(k * c for k, c in zip(wave, coords))
        values += amp * np.exp(-0.5 * rsq / width ** 2 + 1j * phase)
    return values


def make_samples(seed):
    rng = np.random.default_rng([seed, 2])
    return (rng.lognormal(0.0, 1.0, LORENTZ_SAMPLES),
            rng.uniform(0.1, 2.0, LORENTZ_SAMPLES))


def write_samples_csv(path, values, weights):
    with open(path, "w") as fh:
        fh.write("value,weight\n")
        fh.write("\n".join(f"{v!r},{w!r}" for v, w in
                           zip(values.tolist(), weights.tolist())))
        fh.write("\n")


def _energy_gate(summary, outdir):
    return [] if summary["energy_bound_ok"] else ["energy_bound_ok is false"]


def _output_field(outdir):
    values, extents, rep = oracles.read_cmf(
        os.path.join(outdir, "output_field.cmf"))
    if rep != "space":
        raise ValueError(f"output field is in {rep} representation")
    return values.astype(complex), extents


def _check_cone_tent_apply(summary, outdir):
    values, extents = _output_field(outdir)
    cell = float(np.prod([e / n for e, n in zip(extents, values.shape)]))
    l2 = float(np.linalg.norm(values.ravel())) * cell ** 0.5
    if not rel_err(l2, summary["output_l2"]) <= REL_TOL:
        return [f"output field l2 {l2!r} != summary {summary['output_l2']!r}"]
    return []


def _check_br_apply(field):
    def check(summary, outdir):
        values, _ = _output_field(outdir)
        want = oracles.bochner_riesz_apply(field, GRID_EXTENT, 1.0)
        err = np.max(np.abs(values - want)) / np.max(np.abs(want))
        # the output is stored as complex64
        return [] if err <= REL_TOL else [f"br:1.0 output off the FFT "
                                          f"oracle by {err:.3g} relative"]
    return check


def _check_witness(multiplier):
    """The recorded witness reproduces lower_bound via opnorm.evaluate_witness."""
    def check(summary, outdir):
        from conemult import cli, multipliers, opnorm
        axes = cli.build_axes(GRID_EXTENT, GRID_RESOLUTION, 3)
        mult = cli.grid_multiplier(multiplier, axes)
        ratio = opnorm.evaluate_witness(
            lambda f: multipliers.apply_multiplier(f, mult),
            summary["witness"], axes, 1.2, math.inf)
        bound = summary["lower_bound"]
        problems = [] if bound > 0 else [f"lower bound {bound!r} <= 0"]
        if not rel_err(ratio, bound) <= 1e-9:
            problems.append(f"witness gives {ratio!r}, lower_bound {bound!r}")
        return problems
    return check


def _check_lorentz(values, weights, p):
    want = oracles.weak_lorentz(values, weights, p)

    def check(summary, outdir):
        got = summary["quasinorm"]
        return [] if rel_err(got, want) <= 1e-12 else [
            f"quasinorm {got!r}, numpy oracle {want!r}"]
    return check


def grid_ops(seed, workdir, expected):
    """Grid operators on seeded inputs: apply, opnorm and lorentz-norm."""
    field_path = os.path.join(workdir, "input_field.cmf")
    oracles.write_cmf(field_path, make_field(seed), GRID_EXTENT)
    field, _, _ = oracles.read_cmf(field_path)   # as stored: complex64
    csv_path = os.path.join(workdir, "samples.csv")
    values, weights = make_samples(seed)
    write_samples_csv(csv_path, values, weights)
    grid = ["--ndim", "3", "--resolution", str(GRID_RESOLUTION)]
    return [
        Op("apply-cone-tent", ["apply"],
           all_of(_energy_gate, _check_cone_tent_apply)),
        Op("apply-br", ["apply", "--multiplier", "br:1.0",
                        "--input", f"field:{field_path}", *grid],
           all_of(_energy_gate, _check_br_apply(field.astype(complex)))),
        Op("opnorm-estimate", ["opnorm", "--mode", "estimate", "--multiplier",
                               "cone_tent", *grid, "--seed", str(seed)],
           _check_witness("cone_tent")),
        Op("opnorm-sweep", ["opnorm", "--mode", "sweep", "--multiplier",
                            "br:2.0", *grid, "--seed", str(seed)],
           all_of(gate("containment_ok", lambda s: s["containment_ok"]),
                  _check_witness("br:2.0"))),
        Op("lorentz-norm", ["lorentz-norm", "--input", csv_path,
                            "--p", str(LORENTZ_P), "--nu", "inf"],
           _check_lorentz(values, weights, LORENTZ_P)),
    ]


WORKLOADS = {
    "wave": wave_ops,
    "shells": shells_ops,
    "scan": scan_ops,
    "grid": grid_ops,
}


def build(name, seed, workdir):
    """The ops of workload ``name``; writes its generated inputs to workdir."""
    return WORKLOADS[name](seed, workdir, load_expected())
