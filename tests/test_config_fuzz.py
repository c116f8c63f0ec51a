"""Fuzz of config text: every input ends in a documented exit code, never a traceback.

The CLI's contract is exit 0 (success), 2 (blow-up), 3 (invalid configuration)
or 4 (numerical abort); a blow-up found at t = 0 is an input the run should
have rejected.  Hypothesis assembles config files from the keys of every
section, with plausible, extreme and malformed values, and runs each through
``main``.  The ``[scenario]`` section holds the keys of the drawn scenario
and now and then one of another scenario, which must exit 3.  The step,
grid, sample and draw caps are lowered for the run so that every accepted
config finishes in well under a second.
"""

import contextlib
import random
import string
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from epdifflab.cli import main  # noqa: E402
from epdifflab.grid import TorusGrid  # noqa: E402
from epdifflab.operators import sobolev_multiplier  # noqa: E402
from epdifflab.scenarios import SCENARIOS  # noqa: E402

from test_cli import save_symbol_table  # noqa: E402

EXIT_CODES = {0, 2, 3, 4}

# lowered caps: the runs stay short, and the caps' own guards are exercised
CAPS = {
    "epdifflab.epdiff.MAX_STEPS": 8,
    "epdifflab.config.MAX_GRID_POINTS": 1024,
    "epdifflab.scenarios.MAX_SPHERE_SAMPLES": 256,
    "epdifflab.scenarios.MAX_DRAWS": 2,
}

NUMBERS = ["0", "1", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "-inf", "1e", "x", ""]

# per key: (usable values, values that a guard must reject or that stress a run)
SECTIONS = {
    "grid": {
        "dimension": (["1", "2", "3"], ["0", "4", "1.5"]),
        "points": (["8", "16", "32"], ["12", "7", "2048"]),
        "length": (["1.0", "6.283185307179586"], ["1e-110", "1e-200"]),
    },
    "metric": {
        "kind": (["sobolev"] * 3 + ["custom-table"], ["hyperbolic"]),
        "s": (["0", "0.5", "1", "1.5", "2"], ["100", "400", "1e308"]),
        "table": (["good.npz"], ["bad.npz", "empty.npz", "array.npz", "no_order.npz", "missing.npz"]),
    },
    "integrator": {
        "dt": (["0.01", "0.005", "0.05"], ["1e-10"]),
        "t_end": (["0.02", "0.05", "0.1"], ["0.052", "1e300"]),
        "cadence": (["1", "2", "100"], []),
    },
    "scenario": {
        "name": (list(SCENARIOS), ["warp_drive"]),
        "amplitude": (["0.2", "0.5"], ["2", "50"]),
        "width": (["0.1", "0.15"], ["1e-300"]),
        "separation": (["0.25", "0.5"], []),
        "kmax": (["1", "2", "3"], ["1000"]),
        "norm_order": (["1.5", "2"], ["400"]),
        "target_norm": (["1", "0.1"], ["1e300"]),
        "symbol": (["metric", "shear_laplacian"], ["other"]),
        "shear_t": (["1.9", "2.1"], ["-5"]),
        "sphere_samples": (["2", "64"], ["10000"]),
        "draws": (["1", "2"], ["10"]),
        "tolerance": (["1e-6", "1"], []),
    },
    "run": {
        "seed": (["0", "1"], ["-1"]),
        "norms": (["1.5, 2.5", "0", "-3"], ["1e300", "1, x", ","]),
        "blowup_threshold": (["auto", "10"], ["0"]),
    },
}

JUNK_LINES = ["[grid", "= 3", "dimension", "[extra]", "%(points)s = 1", "points = 8\npoints = 16"]


def _value(rng: random.Random, usable: list[str], rejected: list[str]) -> str:
    pick = rng.random()  # mostly usable values, sometimes junk
    if pick < 0.96:
        return rng.choice(usable)
    if pick < 0.98 and rejected:
        return rng.choice(rejected)
    if pick < 0.99:
        return rng.choice(NUMBERS)
    return "".join(rng.choice(string.printable[:-5]) for _ in range(rng.randrange(7)))


def _scenario_keys(rng: random.Random) -> dict:
    """``[scenario]`` keys of a drawn entry: its name (now and then a bad
    one), the keys it reads and, now and then, one that it does not."""
    keys = SECTIONS["scenario"]
    usable, rejected = keys["name"]
    name = rng.choice(usable)
    own = SCENARIOS[name].keys
    if rng.random() < 0.05:
        own += (rng.choice([key for key in keys if key not in own and key != "name"]),)
    return {"name": ([name], rejected)} | {key: keys[key] for key in own}


def config_text(seed: int) -> str:
    """One config file: every section and key most of the time, junk now and then."""
    # a seeded generator keeps the frequencies as written; Hypothesis's own
    # draws favour the ends of each range, which would drop most keys
    rng = random.Random(seed)
    lines = []
    for section, keys in SECTIONS.items():
        if rng.random() < 0.01:
            continue
        lines.append(f"[{section}]")
        if section == "scenario":
            keys = _scenario_keys(rng)
        for key, (usable, rejected) in keys.items():
            if rng.random() < 0.02:
                continue
            lines.append(f"{key} = {_value(rng, usable, rejected)}")
        if rng.random() < 0.02:
            lines.append(rng.choice(JUNK_LINES))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """Custom-table files for the ``table`` key: one valid, the rest unreadable,
    incomplete or not conjugate-symmetric."""
    root = tmp_path_factory.mktemp("fuzz")
    save_symbol_table(root / "good.npz", sobolev_multiplier(1.5, TorusGrid(1, 16)))
    (root / "bad.npz").write_text("not an archive\n")
    (root / "empty.npz").write_bytes(b"")
    with open(root / "array.npz", "wb") as handle:  # an .npy payload under an .npz name
        np.save(handle, np.ones(3))
    np.savez(root / "no_order.npz", table=np.ones((16, 1, 1)))
    asymmetric = dict(np.load(root / "good.npz"))  # breaks a(-k) = conj(a(k)) at k = -3
    asymmetric["table"][-3] *= 1.5
    np.savez(root / "asymmetric.npz", **asymmetric)
    return root


FUZZ = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

GAUSSIAN_D1 = """\
[grid]
dimension = {dimension}
points = 16
[metric]
{metric}
[integrator]
dt = 0.01
t_end = 0.02
[scenario]
name = {name}
[run]
norms = {norms}
"""

PEAKON_D1 = """\
[grid]
dimension = 1
points = 32
[metric]
s = 0
[integrator]
dt = 0.01
t_end = 0.05
[scenario]
name = peakon_pair
[run]
blowup_threshold = 10
"""

TINY_BOX_AUDIT = """\
[grid]
dimension = {dimension}
points = 8
length = 1e-200
[metric]
s = 0
[scenario]
name = conjugation_audit
draws = 1
"""


@FUZZ
@given(text=st.integers(0, 2**32 - 1).map(config_text))
@example(text=GAUSSIAN_D1.format(dimension=1, metric="kind = custom-table\ntable = bad.npz",
                                 name="gaussian_blob", norms="1.5"))
# a table with a(-k) != conj(a(k)): once a run (exit 0) on entries no RK4 stage reads
@example(text=GAUSSIAN_D1.format(dimension=1, metric="kind = custom-table\ntable = asymmetric.npz",
                                 name="gaussian_blob", norms="1.5"))
@example(text=GAUSSIAN_D1.format(dimension=2, metric="s = 400", name="symbol_audit", norms="1.5"))
@example(text=GAUSSIAN_D1.format(dimension=1, metric="s = 1.5", name="gaussian_blob", norms="1e300"))
@example(text=GAUSSIAN_D1.format(dimension=1, metric="s = 1", name="gaussian_blob\namplitude = 1e300",
                                 norms="1.5"))
@example(text=GAUSSIAN_D1.format(dimension=1, metric="s = 1",
                                 name="random_bandlimited\ntarget_norm = 1e150", norms="1.5"))
# a threshold below the initial gradient: once a blow-up verdict at t = 0 (exit 2)
@example(text=GAUSSIAN_D1.format(dimension=1, metric="s = 1.5", name="gaussian_blob",
                                 norms="1.5\nblowup_threshold = 0.5"))
# 5 steps of dt fit the cap of 8, the 10 of the dt/2 confirmation rerun did not (exit 1)
@example(text=PEAKON_D1)
# L^(-2) overflowed in the oracle at d = 1 (OverflowError), L^2 underflowed to 0 at
# d = 2 (ZeroDivisionError): both exit 1
@example(text=TINY_BOX_AUDIT.format(dimension=1))
@example(text=TINY_BOX_AUDIT.format(dimension=2))
def test_config_text_exits_with_a_documented_code(table_dir, text):
    config = table_dir / "run.ini"
    config.write_text(text)
    with contextlib.ExitStack() as caps:
        for target, cap in CAPS.items():
            caps.enter_context(mock.patch(target, cap))
        code = main(["run", str(config), "--output-dir", str(table_dir / "out"), "--quiet"])
    assert code in EXIT_CODES
    if code == 2:  # a blow-up verdict at t = 0 means the datum never ran
        assert "blowup: t=0 " not in (table_dir / "out" / "summary.txt").read_text()
