"""The four workloads: seeded CLI command lines and the check of each output.

Every workload is a closed loop with one client: the next command is built
and sent only after the previous one has returned. A check returns None when
the output matches the reference answers in reference.py, else a message.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Op:
    """One CLI command, the work items it completes and the check of its output."""

    argv: list[str]
    items: int
    check: Callable[[str], str | None]
    out_file: str | None = None


@dataclass(frozen=True)
class Sizes:
    verify_trials: int
    scan_n: int
    sweep_steps: int
    plot_steps: int


FULL = Sizes(verify_trials=10_000, scan_n=250, sweep_steps=50_000, plot_steps=1200)
TINY = Sizes(verify_trials=20, scan_n=12, sweep_steps=300, plot_steps=50)

# What one work item is on each workload, for items_per_s.
ITEM = {"verify": "trial", "scan": "grid cell", "sweep": "energy point", "ss": "report"}

# Workloads whose command times are rescaled by the probe of speed.py pinned
# to each core in turn. scan forks one worker per core, so its work is spread
# over every core. The others run in the benchmark's own process, and the
# probe runs there, on whichever core that process is on.
EVERY_CORE = {"scan"}

# Rows checked at a time. A check parses, and computes the reference for,
# one slice of the output at a time. Its arrays (at most 16 KiB) then reuse
# freed memory, so checking adds about 1 MB to the peak resident memory of
# the process instead of setting it; with 8192 rows it added 6 MB on sweep.
_CHUNK = 1024


def _chunks(text: str, start: int) -> Iterator[str]:
    """text[start:] in consecutive slices of up to _CHUNK whole lines."""
    while start < len(text):
        stop = start
        for _ in range(_CHUNK):
            stop = text.find("\n", stop) + 1
            if stop == 0:
                stop = len(text)
                break
        yield text[start:stop]
        start = stop


def _open_unit(rng: random.Random) -> float:
    return 1.0 - rng.random()


def _lossy_pair(rng: random.Random) -> tuple[float, float]:
    """v1 < 0, v2 < 0: every such pair has a feasible plus branch."""
    return -10.0 * _open_unit(rng), -10.0 * _open_unit(rng)


def _band_pair(rng: random.Random) -> tuple[float, float]:
    """v2 > 0 and kappa v2 < v1 < 0: both branches feasible."""
    v2 = 0.1 + 9.9 * _open_unit(rng)
    return ref.KAPPA * v2 * _open_unit(rng), v2


def _flag(name: str, value: float) -> str:
    # The = form keeps argparse from reading a negative value as an option.
    return f"--{name}={value!r}"


def _number_problem(what: str, got, want: float, mag: float) -> str | None:
    if math.isnan(want):
        return None if got is None else f"{what}: {got!r}, reference null"
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return f"{what}: {got!r}, reference {want!r}"
    if not ref.close(got, want, mag):
        return f"{what}: {got!r}, reference {want!r}"
    return None


# verify ---------------------------------------------------------------------

# The suite seed of the reference command that the acceptance tests and the
# ROADMAP name. It is the same for every command and every benchmark seed:
# about 1 suite seed in 40 ends in exit 3 at the commit that introduced the
# benchmark (METRICS.md, "Known failures"), and a workload has to be one on
# which no command fails.
VERIFY_SEED = 42


def verify_ops(rng: random.Random, sizes: Sizes, out_dir: str) -> Iterator[Op]:
    trials = sizes.verify_trials
    op = Op(["verify", f"--seed={VERIFY_SEED}", f"--trials={trials}"],
            trials, partial(check_verify, VERIFY_SEED, trials))
    while True:
        yield op


def check_verify(seed: int, trials: int, text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 3 or lines[1] != f"seed={seed} trials={trials}":
        return f"verify header {lines[:2]!r}"
    m = re.fullmatch(r"result: PASS \((\d+)/(\d+) checks\)", lines[-1])
    if m is None or m[1] != m[2]:
        return f"verify ended with {lines[-1]!r}"
    return None


# scan -----------------------------------------------------------------------

def scan_ops(rng: random.Random, sizes: Sizes, out_dir: str) -> Iterator[Op]:
    # The box around [-10, 10]^2 is shifted by +s in v1 and -s in v2, so it
    # always holds the lossy quadrant, the v2 > 0 band, infeasible cells and
    # the anti-diagonal v1 + v2 = 0 (DegenerateSum) on grid nodes.
    n = sizes.scan_n
    while True:
        s = rng.uniform(-2.0, 2.0)
        box = (-10.0 + s, 10.0 + s, -10.0 - s, 10.0 - s)
        argv = ["scan", *(_flag(k, x) for k, x in zip(
            ("v1-min", "v1-max", "v2-min", "v2-max"), box)), f"--n1={n}", f"--n2={n}"]
        yield Op(argv, n * n, partial(check_scan, box, n))


def check_scan(box: tuple[float, float, float, float], n: int, text: str) -> str | None:
    head = ref.SCAN_HEADER + "\n"
    if not text.endswith("\n") or text.count("\n") != n * n + 1:
        return f"scan printed {text.count(chr(10))} lines, expected {n * n + 1}"
    if not text.startswith(head):
        return "scan header differs"
    v1_all = np.repeat(ref.axis(box[0], box[1], n), n)
    v2_all = np.tile(ref.axis(box[2], box[3], n), n)
    start = 0
    for chunk in _chunks(text, len(head)):
        rows = [line.split(",") for line in chunk[:-1].split("\n")]
        if any(len(row) != 5 for row in rows):
            return f"scan row near {start + 1} does not have 5 cells"
        sl = slice(start, start + len(rows))
        v1, v2 = v1_all[sl], v2_all[sl]
        br = ref.branches(v1, v2)
        feasible = {k: br[k]["reason"] == "OK" for k in ("plus", "minus")}
        label = ref.classification(feasible["plus"], feasible["minus"])
        scale = ref.strength_scale(v1, v2)
        got_v1, got_v2, got_label, got_plus, got_minus = zip(*rows)
        bad = ~(ref.close(np.array(got_v1, dtype=float), v1, scale)
                & ref.close(np.array(got_v2, dtype=float), v2, scale)
                & (np.array(got_label) == label))
        for name, cells in (("plus", got_plus), ("minus", got_minus)):
            cells = np.array(cells)
            empty = cells == ""
            bad |= empty != ~feasible[name]
            filled = ~empty & feasible[name]
            bad[filled] |= ~ref.close(cells[filled].astype(float),
                                      br[name]["energy"][filled], scale[filled] ** 2)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return (f"scan row {start + i + 1}: {','.join(rows[i])!r}; reference "
                    f"({float(v1[i])!r}, {float(v2[i])!r}, {label[i]})")
        start += len(rows)
    return None


# sweep (plus plot) ----------------------------------------------------------

# Half the sweeps set g2 to a feasible branch value and place that branch's
# singular energy on a grid node, so the grid crosses the resonance and the
# singular-row path (nan/inf cells) runs; half draw g2 freely. One command in
# five renders an SVG plot.
_SWEEP_CYCLE = ("resonant", "free", "resonant", "free", "plot")
_PLOT_GRID = (0.05, 4.0)


def sweep_ops(rng: random.Random, sizes: Sizes, out_dir: str) -> Iterator[Op]:
    n = sizes.sweep_steps
    for k in itertools.count():
        kind = _SWEEP_CYCLE[k % len(_SWEEP_CYCLE)]
        if kind == "plot":
            yield _plot_op(rng, sizes.plot_steps, os.path.join(out_dir, "plot.svg"))
            continue
        if kind == "resonant":
            v1, v2 = _lossy_pair(rng) if rng.random() < 0.5 else _band_pair(rng)
            br = ref.branches(v1, v2)
            name = rng.choice([b for b in ("plus", "minus") if br[b]["reason"] == "OK"])
            g2, e_s = float(br[name]["g2"]), float(br[name]["energy"])
            node = rng.randrange(n // 10, 9 * n // 10)
            e_min = e_s * rng.uniform(0.05, 0.5)
            e_max = e_min + (e_s - e_min) / node * (n - 1)
        else:
            v1, v2 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            g2 = 100.0 * _open_unit(rng)
            e_min = rng.uniform(0.01, 1.0)
            e_max = e_min + rng.uniform(5.0, 50.0)
        argv = ["sweep", _flag("v1", v1), _flag("v2", v2), _flag("g2", g2),
                _flag("emin", e_min), _flag("emax", e_max), f"--steps={n}"]
        yield Op(argv, n, partial(check_sweep, v1, v2, g2, e_min, e_max, n))


def check_sweep(v1: float, v2: float, g2: float, e_min: float, e_max: float,
                steps: int, text: str) -> str | None:
    head = ref.SWEEP_HEADER + "\n"
    if not text.startswith(head) or not text.endswith("\n"):
        return "sweep header or final newline differs"
    if text.count("\n") != steps + 1:
        return f"sweep printed {text.count(chr(10)) - 1} rows, expected {steps}"
    energies = ref.axis(e_min, e_max, steps)
    start = 0
    for chunk in _chunks(text, len(head)):
        rows = chunk.count("\n")
        want = ref.amplitudes(v1, v2, g2, energies[start:start + rows])
        # Any unparseable cell ends the parse early, which the size check catches.
        got = np.fromstring(chunk.replace("\n", ","), sep=",")
        if got.size != 9 * rows:
            return f"sweep rows near {start + 1} do not hold 9 numbers each"
        got = got.reshape(rows, 9)
        sing = want["singular"]
        bad = ~(ref.close(got[:, 0], want["E"]) & ref.close(got[:, 1], want["beta"]))
        bad |= np.isnan(got[:, 2]) != sing
        ok = ~sing
        r_mag, t_mag = np.abs(want["r"][ok]), np.abs(want["t"][ok])
        for col, value, mag in ((2, want["r"].real, r_mag), (3, want["r"].imag, r_mag),
                                (4, want["t"].real, t_mag), (5, want["t"].imag, t_mag),
                                (6, want["R"], 0.0), (7, want["T"], 0.0),
                                (8, want["absD"], 0.0)):
            bad[ok] |= ~ref.close(got[ok, col], value[ok], mag)
        if sing.any():
            lines = chunk.split("\n")
            for i in np.flatnonzero(sing):
                bad[i] |= lines[i].split(",", 2)[2] != ref.SINGULAR_CELLS
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return (f"sweep row {start + i + 1} differs from the reference "
                    f"at E={float(want['E'][i])!r}")
        start += rows
    return None


def _plot_op(rng: random.Random, steps: int, path: str) -> Op:
    v1, v2 = _band_pair(rng)
    branch = rng.choice(("plus", "minus"))
    argv = ["plot", _flag("v1", v1), _flag("v2", v2), f"--branch={branch}",
            _flag("emin", _PLOT_GRID[0]), _flag("emax", _PLOT_GRID[1]),
            f"--steps={steps}", f"--out={path}"]
    return Op(argv, steps, partial(check_plot, v1, v2, branch, steps, path), path)


def check_plot(v1: float, v2: float, branch: str, steps: int, path: str,
               text: str) -> str | None:
    if text:
        return "plot wrote to stdout"
    with open(path, encoding="utf-8") as fh:
        svg = fh.read()
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        return "plot output is not a complete SVG document"
    br = ref.branches(v1, v2)
    e_min, e_max = _PLOT_GRID
    want = ref.amplitudes(v1, v2, float(br[branch]["g2"]), ref.axis(e_min, e_max, steps))
    for cls, values in (("curve-r", want["R"]), ("curve-t", want["T"])):
        m = re.search(f'class="{cls}" points="([^"]*)"', svg)
        n_want = int(np.count_nonzero(np.isfinite(values) & (values > 0.0)))
        if m is None or len(m[1].split()) != n_want:
            return f"plot {cls} does not have {n_want} points"
    markers = [float(x) for x in re.findall(r'data-energy="([^"]+)"', svg)]
    energies = [float(br[b]["energy"]) for b in ("plus", "minus")
                if br[b]["reason"] == "OK" and e_min <= br[b]["energy"] <= e_max]
    if len(markers) != len(energies) or not all(ref.close(markers, energies)):
        return f"plot markers {markers} differ from branch energies {energies}"
    return None


# ss -------------------------------------------------------------------------

_SS_KEYS = {"v1", "v2", "g2_plus", "g2_minus", "E_plus", "E_minus", "beta_plus",
            "beta_minus", "classification", "branches", "oracle"}


def ss_ops(rng: random.Random, sizes: Sizes, out_dir: str) -> Iterator[Op]:
    # Lossy-quadrant pairs, where only the plus branch is feasible, so every
    # report locates one double root with quartic_roots. Band pairs, with two
    # double roots, are left out: on about 1 in 10^4 of them quartic_roots
    # raises at the commit that introduced the benchmark (METRICS.md, "Known
    # failures"), and a workload has to be one on which no command fails.
    while True:
        yield ss_op(*_lossy_pair(rng))


def ss_op(v1: float, v2: float) -> Op:
    return Op(["ss", _flag("v1", v1), _flag("v2", v2), "--json"], 1,
              partial(check_ss, v1, v2))


def check_ss(v1: float, v2: float, text: str) -> str | None:
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"ss output is not JSON: {exc}"
    if not isinstance(report, dict) or set(report) != _SS_KEYS:
        return "ss report keys differ"
    if report["v1"] != v1 or report["v2"] != v2:
        return "ss report echoes other strengths"
    br = ref.branches(v1, v2)
    scale = float(ref.strength_scale(v1, v2))
    feasible = {}
    for name in ("plus", "minus"):
        want = {k: float(v) for k, v in br[name].items() if k != "reason"}
        reason = str(br[name]["reason"])
        feasible[name] = reason == "OK"
        rec = report["branches"][name]
        if (rec.get("branch"), rec.get("reason"), rec.get("feasible")) != (name, reason, feasible[name]):
            return f"ss {name} branch label {rec.get('reason')!r}, reference {reason!r}"
        for what, got, key, mag in (
                ("g_squared", rec["g_squared"], "g2", scale * scale),
                ("beta", rec["beta"], "beta", scale),
                ("energy", rec["energy"], "energy", scale * scale),
                ("g2_" + name, report["g2_" + name], "g2", scale * scale),
                ("beta_" + name, report["beta_" + name], "beta", scale),
                ("E_" + name, report["E_" + name], "energy", scale * scale)):
            problem = _number_problem(f"ss {name} {what}", got, want[key], mag)
            if problem:
                return problem
        oracle = report["oracle"][name]
        if not feasible[name]:
            if oracle is not None:
                return f"ss {name} oracle present for an infeasible branch"
            continue
        g2, beta = want["g2"], want["beta"]
        g2_stored = float(ref.stored_g2(g2))
        abs_d = abs(ref.denominator(v1, v2, g2_stored, beta))
        problem = _number_problem(f"ss {name} abs_denominator", oracle["abs_denominator"],
                                  abs_d, ref.denominator_terms(v1, v2, g2_stored, beta))
        if problem:
            return problem
        root = oracle["double_root_beta"]
        if root is None or abs(root - beta) > ref.ROOT_TOL * max(1.0, beta):
            return f"ss {name} double root {root!r} not at beta {beta!r}"
        if oracle["double_root_multiplicity"] != 2:
            return f"ss {name} multiplicity {oracle['double_root_multiplicity']!r}, expected 2"
    want_label = str(ref.classification(np.bool_(feasible["plus"]), np.bool_(feasible["minus"])))
    if report["classification"] != want_label:
        return f"ss classification {report['classification']!r}, reference {want_label!r}"
    return None


WORKLOADS = {"verify": verify_ops, "scan": scan_ops, "sweep": sweep_ops, "ss": ss_ops}
