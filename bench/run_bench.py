"""Layer timings of the transforms, the Fourier multipliers, the Lagrangian
solver, the convolution oracle and the Eulerian solver, written to a
``BENCH_*.json`` record.

Usage (from the repository root):

    python bench/run_bench.py --output BENCH_eulerian.json --baseline HEAD --rounds 5
    python bench/run_bench.py --output BENCH_transforms.json --baseline HEAD --groups transforms

Times, at d=1 n=256 and d=2 n=64 on the datum of ``configs/consistency.ini``:
``spray_at_identity``, a warm-started ``invert``, ``compose``, one
``spray_rhs`` stage, and the whole ``integrate_geodesic`` run of that config.
The run's sup velocity gap against the Eulerian solver is recorded beside
it.  Machine-independent counts go with the timings: transform calls
(``grid._rfft``/``grid._irfft``), calls of scipy's spline kernels
(``scipy.ndimage._nd_image.spline_filter1d``/``geometric_transform``, which
the package calls directly and ``ndimage``'s public wrappers call too) and
calls of numpy's public ``np.einsum`` per spray and per stage.  An
``np.einsum`` call is counted where its Python wrapper calls numpy's kernel,
``numpy._core.einsumfunc.c_einsum``, which it looks up on every call, so a
``partial`` bound to ``np.einsum`` is counted too; the package's own calls
of that kernel (``grid._einsum``) are not.

The oracle group times, for the four cases of acceptance criterion 1, the
``ConvolutionKernel`` build, the first ``apply`` of a new kernel (which
builds the brackets of the live tuples), a repeated ``apply`` and one
``apply_An_recursive`` on a band-limited draw with headroom, and
``estimate_Cn`` at ``xi_max`` 500 and 1000 for orders 1 and 2.  It records
the tracemalloc peak of a build and of a new kernel's first ``apply`` on a
dense draw, every mode nonzero.  It also times ``apply_An_recursive`` at
d=2 n=64 order 2 and d=3 n=32 order 1, grids where its padded passes are
split.  It counts the tuples a kernel holds after its build
(``kernel_tuples``) and after one ``apply`` of the draw (``live_tuples``),
the ``grid.padded_samples`` and ``grid._truncate_half`` calls per
``apply_An_recursive`` and the ``symbol_an`` calls per ``estimate_Cn``, and
records the oracle's relative error and the envelope ratios as values.

The Eulerian group times one ``euler_rhs`` and one ``step_rk4`` call at
d=1 n=128, 256 and 1024 on the datum of ``configs/peakon_blowup.ini``, and at
d=2 n=64 and 128 and d=3 n=16 and 32 on the seeded band-limited datum of the
``bandlimited_3d`` benchmark workload (H^2 metric), each step half the CFL
limit, and the whole peakon ``integrate`` to t=0.5.  It counts, per ``step_rk4``,
the transform calls (``grid._rfft``/``grid._irfft``), the conjugate
reflections (``epdiff._full``), the calls of the stage's right-hand side
(``epdiff.euler_rhs``, and ``epdiff._rhs_half`` where it exists) and the
public ``np.einsum`` calls (counted as in the Lagrangian group) and the
tasks submitted to the transform pool (``grid._pool``, which the runner
looks up once per submit), and records the final energy and sup|grad u| of
the peakon run as values.  At every d > 1 grid it also times ``step_rk4``
with ``grid.TRANSFORM_WORKERS`` at each count of ``STEP_WORKERS``, the counts
alternating, and counts the pool submits of one step at each.

The allocation group, at d=2 n=64 and 128 and d=3 n=16 and 32, where the
padded passes are split, samples one warm ``euler_rhs`` and one warm
``step_rk4`` call (each after a warm-up call) on the band-limited datum.  It records the tracemalloc
peak in MiB and the process's minor page faults (``ru_minflt``, every
thread).

The transform group times, in microseconds, one call of ``grid._rfft``,
``grid._irfft``, ``grid.padded_samples`` and ``grid._truncate_half`` at d=1
n=128, 256 and 1024, d=2 n=64 and 128 and d=3 n=32, on the stacks of the
transport term: its first padded pass, its d-row truncation, and one
transform call's share of each.  At d > 1, where the pass objects transform
only the lines of ``grid._Plan.columns``, it also times the pruned inverse
(the zeroing included) and forward transform of one call against the whole
``_irfft``/``_rfft`` on the same embedded spectrum and samples, alternating
in one process, with the ratio of each pair as a sample of its own.  It
counts the calls of numpy's pocketfft gufuncs (``numpy.fft._pocketfft_umath``)
that each helper call makes, the pruned ones included.

The multiplier group times ``operators.sobolev_multiplier`` (the ellipticity
certificate, the lattice table and its inverse table), ``apply`` and
``apply_inverse`` at d=1 n=256 and 1024, d=2 n=64 and 128 and d=3 n=32, for
the H^2 metric on the seeded band-limited datum.  It counts, per build, the
matrices passed to ``np.linalg.inv`` by each package module that calls it:
``operators`` for the inverse table, ``symbols`` for the certificate's
sample points.

The certificate group times the normal and strong ellipticity certificates
of the shear Laplacian pair at t=1.99 and of ``sobolev_symbol(1.5, 2)`` on
10 000 sphere samples; for d=1 and 2, ``sqrt_symbol(sobolev_symbol(1.5,
d))``, the square root at 10 000 uniform points in [-200, 200]^d and its
``check_order_estimate``; ``verify_sn_identity`` at order 2 for d=1 and 2; and
``symbols._check_flags`` on the ``sobolev_multiplier(1.5, TorusGrid(3, 32))``
table.  It counts, per call, the ``np.linalg.eigh``/``eigvalsh``/``eigvals``
calls and the ``conjugation._s_tensor_scaled`` calls.

The guard group runs ``integrate`` as ``epdifflab run`` does: the config of
``configs/peakon_blowup.ini`` to its halt at dt and at dt/2 (the
confirmation run), the datum of ``configs/gaussian_blob.ini`` at d=2 n=64 for
``GUARD_BLOB_STEPS`` steps, and the band-limited datum at d=3 n=32 (four
steps of 0.01, as ``bandlimited_3d``), each with the default blow-up
threshold.  It times each run per outer step and counts, per run, the exact
samplings of the CFL guard and of the gradient threshold
(``epdiff.cfl_limit``, ``epdiff.sup_velocity_gradient``) against the
evaluations of their coefficient bound (``epdiff._guard_ceilings``, where it
exists), with the outer steps, substeps and retries as values.

The cli group runs every ``configs/*.ini`` as ``python -m epdifflab.cli run
CONFIG --quiet`` (into a temporary output directory), and ``python -c
"import epdifflab"``, each in a fresh process with the side's ``src`` as
``PYTHONPATH``.  It times each run's wall clock, interpreter start included,
and records the exit code and the maximum resident set size of the first
timed run (``os.wait4``'s rusage) as values.  One untimed ``-X importtime``
run of each, which also writes the side's bytecode caches, counts whether
``scipy.ndimage`` and ``concurrent.futures`` (the transform pool) were
imported.  Bytecode caching stays on for these runs,
also where ``PYTHONDONTWRITEBYTECODE`` is set, so the timed runs do not
compile the package.

Each round measures every group of every side in a fresh child process, so
no group runs on a heap that another group grew.  The working tree is one
side; ``--baseline REF`` adds the tree of a git commit as the other,
exported with ``git archive`` into a temporary directory, and the side that
goes first alternates from group to group and round to round.  The record
holds each side's samples and medians, the relative change of every median
(also paired by round), the rounds each side read lower, the machine, the
numpy/scipy versions and the git SHA.  BLAS and OpenMP run one thread each.
Needs only the standard library and the package's own dependencies.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "consistency.ini"
PEAKON_CONFIG = REPO / "configs" / "peakon_blowup.ini"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRIDS = ((1, 256), (2, 64))
# A timed sample repeats a call until it takes at least this long.
MIN_SAMPLE_S = 0.05
# The per-call timings use the chart after this many steps of the run, away
# from the identity, with the inverse of the chart one step earlier as the
# warm start.
WARM_STEPS = 10
# (dim, n, order) of the acceptance-1 oracle cases
ORACLE_CASES = ((1, 16, 1), (1, 16, 2), (2, 8, 1), (2, 8, 2))
# (dim, n, order) of operator-recursion calls on grids too large for the
# oracle, where the padded passes are split into chunks
LARGE_TOWER_CASES = ((2, 64, 2), (3, 32, 1))
# (dim, n) of the Eulerian per-call timings: the peakon datum at d=1, the
# band-limited datum (|k|_inf <= 4, unit H^1.5 norm, H^2 metric, seed 0) above
EULER_GRIDS = ((1, 128), (1, 256), (1, 1024), (2, 64), (2, 128), (3, 16), (3, 32))
# (dim, n) of the multiplier timings
MULTIPLIER_GRIDS = ((1, 256), (1, 1024), (2, 64), (2, 128), (3, 32))
# worker counts of the step_rk4 timings at d > 1
STEP_WORKERS = (1, 2)
# (dim, n, rows) of the transform timings: rows is the stack of the transport
# term's first padded pass ([v, m, div v]; at d=1 [v, m] and the fused
# gradients, of which d_0 v^0 is div v)
TRANSFORM_CASES = ((1, 128, 4), (1, 256, 4), (1, 1024, 4), (2, 64, 5), (2, 128, 5), (3, 32, 7))
PEAKON_T_END = 0.5
# outer steps of the guard group's d=2 blob run
GUARD_BLOB_STEPS = 50
# sphere samples of the ellipticity certificates and points of the square
# root, as the tower_oracle benchmark workload uses them
CERT_SAMPLES = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, type=Path, help="where to write the JSON record")
    parser.add_argument("--baseline", help="git ref of the tree to compare the working tree with")
    parser.add_argument("--rounds", type=int, default=1, help="child processes per side")
    parser.add_argument("--repeats", type=int, default=5, help="timed samples per call and round")
    parser.add_argument("--groups", default=",".join(GROUPS),
                        help=f"comma-separated groups to measure (default: {','.join(GROUPS)})")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # src directory to measure
    return parser


# --- measurements, in a child process ------------------------------------------------

class CallCounter:
    """Counts the calls of module attributes by replacing them with counting
    wrappers, until :meth:`close` puts the originals back.  Transform chunks
    call from worker threads, so a lock guards the counts."""

    def __init__(self, targets) -> None:
        self.counts, self.originals = {}, []
        self.lock = threading.Lock()
        for module, name in targets:
            key, fn = f"{module.__name__}.{name}", getattr(module, name)
            self.counts[key] = 0
            self.originals.append((module, name, fn))
            setattr(module, name, self._counted(key, fn))

    def _counted(self, key: str, fn):
        def counted(*args, **kwargs):
            with self.lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def calls_in(self, call) -> dict[str, int]:
        before = dict(self.counts)
        call()
        return {key: self.counts[key] - before[key] for key in self.counts}

    def close(self) -> None:
        for module, name, fn in self.originals:
            setattr(module, name, fn)


def _per_call_ms(call, repeats: int) -> list[float]:
    """``repeats`` samples of the time per call in ms; a sample repeats the
    call until it lasts ``MIN_SAMPLE_S``."""
    call()
    number = 1
    while True:
        start = perf_counter()
        for _ in range(number):
            call()
        elapsed = perf_counter() - start
        if elapsed >= MIN_SAMPLE_S:
            break
        number *= 2
    samples = [1e3 * elapsed / number]
    for _ in range(repeats - 1):
        start = perf_counter()
        for _ in range(number):
            call()
        samples.append(1e3 * (perf_counter() - start) / number)
    return samples


def _fresh_call_ms(make, call, repeats: int) -> list[float]:
    """``repeats`` samples of the time per ``call(make())`` in ms, ``make``
    untimed: each call gets a new object, and a sample repeats calls until
    they last ``MIN_SAMPLE_S``."""
    call(make())
    samples = []
    for _ in range(repeats):
        elapsed, number = 0.0, 0
        while elapsed < MIN_SAMPLE_S:
            target = make()
            start = perf_counter()
            call(target)
            elapsed += perf_counter() - start
            number += 1
        samples.append(1e3 * elapsed / number)
    return samples


def _traced_peak_mib(call) -> float:
    """The tracemalloc peak of one call, in MiB."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _kernel_tuples(kernel) -> int:
    """The lattice tuples whose brackets a ``ConvolutionKernel`` holds."""
    return sum(idx.shape[1] for idx, _, _ in kernel.chunks)


def _warm_allocations(call, repeats: int) -> tuple[list[float], list[float]]:
    """``repeats`` samples each of the tracemalloc peak (MiB) and of the minor
    page faults of one call, after a warm-up call; faults are counted on calls
    of their own, outside tracemalloc."""
    import resource

    call()
    peaks, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults.append(float(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
        peaks.append(_traced_peak_mib(call))
    return peaks, faults


def _config_params(path: Path, *scenario_keys: str) -> dict[str, float]:
    parser = configparser.ConfigParser()
    parser.read(path)
    params = {
        "s": parser.getfloat("metric", "s"),
        "dt": parser.getfloat("integrator", "dt"),
        "t_end": parser.getfloat("integrator", "t_end"),
    }
    params.update({key: parser.getfloat("scenario", key) for key in scenario_keys})
    return params


def measure(group: str, repeats: int) -> dict:
    """Samples, counts and values of one group, on the package that
    ``import epdifflab`` finds."""
    samples, counts, values = {}, {}, {}
    GROUPS[group](repeats, samples, counts, values)
    from epdifflab import grid as grid_module  # after the group: see measure_cli()

    return {"samples": samples, "counts": counts, "values": values,
            "transform_workers": grid_module.TRANSFORM_WORKERS}


def measure_lagrangian(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The Lagrangian group: the layers of ``integrate_geodesic`` on the
    datum of ``configs/consistency.ini``, and the whole run."""
    import numpy as np
    from numpy._core import einsumfunc  # public np.einsum calls are counted at its kernel
    from scipy.ndimage import _nd_image

    from epdifflab import grid as grid_module
    from epdifflab.epdiff import EulerState, gaussian_blob, integrate
    from epdifflab.lagrangian import (
        DiffeoChart,
        GeodesicState,
        compose,
        integrate_geodesic,
        invert,
        spray_at_identity,
        spray_rhs,
    )
    from epdifflab.operators import sobolev_multiplier

    def layer_calls(mult, state, warm):
        """The timed calls on one state; ``warm`` starts ``invert``.  Invert and
        the stage get a new chart per call, as each RK4 stage builds one, so no
        spline filter of the chart carries over."""
        f, v = state.phi.f, state.v
        u = compose(v, invert(state.phi))
        return {
            "spray_at_identity": lambda: spray_at_identity(mult, u),
            "invert_warm": lambda: invert(DiffeoChart(f), warm),
            "compose": lambda: compose(v, state.phi),
            "spray_rhs_stage": lambda: spray_rhs(mult, GeodesicState(DiffeoChart(f), v), warm),
        }

    params = _config_params(CONFIG, "amplitude", "width")
    dt = params["dt"]
    counted = {}
    for dim, n in GRIDS:
        tag = f"d{dim}_n{n}"
        grid = grid_module.TorusGrid(dim, n)
        mult = sobolev_multiplier(params["s"], grid)
        u0 = gaussian_blob(grid, amplitude=params["amplitude"], width=params["width"])
        initial = GeodesicState(DiffeoChart.identity(grid), u0)
        *_, before, state = integrate_geodesic(mult, initial, WARM_STEPS * dt, dt, snapshot_cadence=1)
        calls = layer_calls(mult, state, invert(before.phi).displacement_samples)
        for name, call in calls.items():
            samples[f"{tag}.{name}_ms"] = _per_call_ms(call, repeats)
        counted[f"{tag}.per_spray"] = calls["spray_at_identity"]
        counted[f"{tag}.per_stage"] = calls["spray_rhs_stage"]

        start = perf_counter()
        final = integrate_geodesic(mult, initial, params["t_end"], dt)[-1]
        samples[f"{tag}.integrate_geodesic_s"] = [perf_counter() - start]
        eulerian = integrate(mult, EulerState.from_velocity(mult, u0), params["t_end"], dt,
                             cadence=10**9)
        gap = np.abs(final.eulerian_velocity().samples() - eulerian.final_state.u.samples()).max()
        values[f"{tag}.sup_velocity_gap"] = float(gap)
    # counted after every timing, so that no timed call runs through a counting wrapper
    counter = CallCounter([(grid_module, "_rfft"), (grid_module, "_irfft"),
                           (_nd_image, "spline_filter1d"), (_nd_image, "geometric_transform"),
                           (einsumfunc, "c_einsum")])
    for key, call in counted.items():
        counts[key] = counter.calls_in(call)
    counter.close()


def measure_oracle(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The oracle group: kernel build, ``apply``, the operator recursion and
    the growth envelope, as the ``tower_oracle`` benchmark workload runs them."""
    import numpy as np

    from epdifflab import conjugation
    from epdifflab import grid as grid_module
    from epdifflab.epdiff import bandlimited_draw
    from epdifflab.grid import TorusGrid
    from epdifflab.operators import sobolev_multiplier
    from epdifflab.symbols import sobolev_symbol

    towers = {}
    for dim, n, order in ORACLE_CASES + LARGE_TOWER_CASES:
        oracle = (dim, n, order) in ORACLE_CASES
        tag = f"{'oracle' if oracle else 'tower'}.d{dim}_n{n}_order{order}"
        mult = sobolev_multiplier(1.0, TorusGrid(dim, n))
        rng = np.random.default_rng(1000 + 10 * order + dim)
        kmax = conjugation.headroom_band(order, n)
        fields = [bandlimited_draw(mult.grid, kmax, rng) for _ in range(order + 1)]
        tower = towers[tag] = functools.partial(conjugation.apply_An_recursive, mult, order, *fields)
        samples[f"{tag}.apply_An_recursive_ms"] = _per_call_ms(tower, repeats)
        counts[tag] = {}
        if not oracle:
            continue
        build = functools.partial(conjugation.ConvolutionKernel, mult, order)
        kernel = build()
        counts[tag]["kernel_tuples"] = _kernel_tuples(kernel)
        samples[f"{tag}.build_ms"] = _per_call_ms(build, repeats)
        samples[f"{tag}.first_apply_ms"] = _fresh_call_ms(build, lambda k: k.apply(*fields), repeats)
        samples[f"{tag}.apply_ms"] = _per_call_ms(lambda: kernel.apply(*fields), repeats)
        counts[tag]["live_tuples"] = _kernel_tuples(kernel)
        dense = [bandlimited_draw(mult.grid, n // 2, rng) for _ in range(order + 1)]
        samples[f"{tag}.build_peak_mib"] = [_traced_peak_mib(build) for _ in range(repeats)]
        samples[f"{tag}.dense_apply_peak_mib"] = [
            _traced_peak_mib(functools.partial(build().apply, *dense)) for _ in range(repeats)]
        rec = tower().coeffs
        conv = kernel.apply(*fields).coeffs
        values[f"{tag}.rel_err"] = float(np.abs(rec - conv).max() / np.abs(rec).max())

    metric = sobolev_symbol(1.0, 1)
    envelopes = {}
    for order in (1, 2):
        for xi_max in (500.0, 1000.0):
            tag = f"oracle.estimate_Cn_n{order}_xi{xi_max:g}"
            call = envelopes[tag] = functools.partial(conjugation.estimate_Cn, metric, order, xi_max=xi_max)
            samples[f"{tag}_ms"] = _per_call_ms(call, repeats)
            values[f"{tag}.max_ratio"] = call().max_ratio
    # counted after every timing, as in measure()
    counter = CallCounter([(conjugation, "symbol_an")])
    for tag, call in envelopes.items():
        counts[tag] = counter.calls_in(call)
    # padded passes per apply_An_recursive, also where conjugation binds the
    # grid functions by name
    passes = CallCounter([(grid_module, "padded_samples"), (grid_module, "_truncate_half")])
    bound = [name for name in ("padded_samples", "_truncate_half") if hasattr(conjugation, name)]
    originals = {name: getattr(conjugation, name) for name in bound}
    for name in bound:
        setattr(conjugation, name, getattr(grid_module, name))
    for tag, call in towers.items():
        counts[tag].update(passes.calls_in(call))
    passes.close()
    for name, fn in originals.items():
        setattr(conjugation, name, fn)
    counter.close()


def _bandlimited_state(dim: int, n: int):
    """The multiplier and state of the Eulerian band-limited datum on a new grid."""
    from epdifflab.epdiff import EulerState, random_bandlimited
    from epdifflab.grid import TorusGrid
    from epdifflab.operators import sobolev_multiplier

    mult = sobolev_multiplier(2.0, TorusGrid(dim, n))
    u = random_bandlimited(mult.grid, 4, norm_order=1.5, target_norm=1.0, seed=0)
    return mult, EulerState.from_velocity(mult, u)


def measure_allocations(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The allocation group: tracemalloc peak and minor page faults of one
    warm ``euler_rhs`` and ``step_rk4`` call on the grids with split passes."""
    from epdifflab.epdiff import euler_rhs, step_rk4

    for dim, n in EULER_GRIDS:
        if dim == 1:
            continue
        tag = f"eulerian.d{dim}_n{n}"
        mult, state = _bandlimited_state(dim, n)
        calls = {"euler_rhs": functools.partial(euler_rhs, mult, state.m),
                 "step_rk4": functools.partial(step_rk4, mult, state, 0.5 * state.cfl)}
        for name, call in calls.items():
            peaks, faults = _warm_allocations(call, repeats)
            samples[f"{tag}.{name}_peak_mib"] = peaks
            samples[f"{tag}.{name}_minflt"] = faults


def measure_transforms(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The transform group: one call of ``_rfft``, ``_irfft``, ``padded_samples``
    and ``_truncate_half`` on the stacks of the transport term, and the calls
    of numpy's pocketfft gufuncs that each makes."""
    import numpy as np
    from numpy.fft import _pocketfft_umath

    from epdifflab import grid as grid_module

    rng = np.random.default_rng(0)
    calls = {}
    for dim, n, rows in TRANSFORM_CASES:
        tag = f"transforms.d{dim}_n{n}"
        grid = grid_module.TorusGrid(dim, n)
        plan = grid.plan
        coeffs = grid_module._spectra(grid, rng.standard_normal((rows,) + grid.shape))
        padded = rng.standard_normal((dim,) + plan.padded_shape)
        # _rfft/_irfft on one call's share of those stacks, as a chunk of a split pass gets
        spec = np.fft.rfftn(rng.standard_normal((min(rows, plan.batch),) + plan.padded_shape),
                            axes=tuple(range(-dim, 0)))
        calls[tag] = {
            "rfft": functools.partial(grid_module._rfft, padded[:plan.batch], dim),
            "irfft": functools.partial(grid_module._irfft, spec, plan.padded_shape),
            "padded_samples": functools.partial(grid_module.padded_samples, grid, coeffs),
            "truncate_half": functools.partial(grid_module._truncate_half, grid, padded),
        }
        for name, call in calls[tag].items():
            samples[f"{tag}.{name}_us"] = [1e3 * ms for ms in _per_call_ms(call, repeats)]
        if dim > 1 and hasattr(plan, "columns"):  # a tree whose passes skip lines
            pairs = _pruned_and_whole(grid, coeffs[:min(rows, plan.batch)], padded[:plan.batch])
            for direction, (pruned, whole) in pairs.items():
                for _ in range(repeats):
                    times = {"pruned": _per_call_ms(pruned, 1)[0], "whole": _per_call_ms(whole, 1)[0]}
                    for side, ms in times.items():
                        samples.setdefault(f"{tag}.{direction}_{side}_us", []).append(1e3 * ms)
                    samples.setdefault(f"{tag}.{direction}_pruned_over_whole", []).append(
                        times["pruned"] / times["whole"])
                calls[tag][f"{direction}_pruned"] = pruned
    # counted after every timing, as in measure_lagrangian(); numpy.fft's
    # wrappers call these gufuncs by module attribute too
    counter = CallCounter([(_pocketfft_umath, name) for name in ("rfft_n_even", "fft", "ifft", "irfft")])
    for tag, by_name in calls.items():
        for name, call in by_name.items():
            counts[f"{tag}.{name}"] = {key.rsplit(".", 1)[1]: value
                                       for key, value in counter.calls_in(call).items()}
    counter.close()


def _pruned_and_whole(grid, coeffs, padded) -> dict:
    """``{"irfft": (pruned, whole), "rfft": (pruned, whole)}``: one transform
    call of the grid's pass objects on the embedded spectrum of ``coeffs``
    and on the samples ``padded``, with the lines they skip and with every
    line.  The pruned inverse zeroes what its transforms do not write, as a
    sampling does before each call.  The objects are the ones the passes
    build and keep, found in the plan by their key: type and height."""
    import numpy as np

    from epdifflab import grid as grid_module

    plan = grid.plan
    out = np.empty((len(coeffs),) + plan.padded_shape)
    grid_module.padded_samples(grid, coeffs, out)  # embeds coeffs in the workspace that both inverses read
    grid_module._truncate_half(grid, padded)
    kept = vars(plan._buffers)
    sampling = kept[grid_module._Sampling, len(coeffs)]
    truncation = kept[grid_module._Truncation, len(padded)]

    def irfft_pruned():
        for zeros in sampling.zeros:
            zeros.fill(0)
        grid_module._irfft(sampling.spec, plan.padded_shape, out, sampling.work, sampling.lines)

    return {
        "irfft": (irfft_pruned,
                  functools.partial(grid_module._irfft, sampling.spec, plan.padded_shape, out, sampling.work)),
        "rfft": (functools.partial(grid_module._rfft, padded, grid.dim, truncation.spec, truncation.lines),
                 functools.partial(grid_module._rfft, padded, grid.dim, truncation.spec)),
    }


def measure_multiplier(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The multiplier group: ``sobolev_multiplier``, ``apply`` and
    ``apply_inverse`` per call, and the matrices each build inverts."""
    import numpy as np

    from epdifflab.epdiff import random_bandlimited
    from epdifflab.grid import TorusGrid
    from epdifflab.operators import apply, apply_inverse, sobolev_multiplier

    builds = {}
    for dim, n in MULTIPLIER_GRIDS:
        tag = f"multiplier.d{dim}_n{n}"
        grid = TorusGrid(dim, n)
        build = builds[tag] = functools.partial(sobolev_multiplier, 2.0, grid)
        mult = build()
        u = random_bandlimited(grid, 4, norm_order=1.5, target_norm=1.0, seed=0)
        samples[f"{tag}.build_ms"] = _per_call_ms(build, repeats)
        samples[f"{tag}.apply_ms"] = _per_call_ms(lambda: apply(mult, u), repeats)
        samples[f"{tag}.apply_inverse_ms"] = _per_call_ms(lambda: apply_inverse(mult, u), repeats)
    # counted after every timing, as in measure_lagrangian(): the matrices of
    # each np.linalg.inv call, under the last name of the calling module
    inv, by_module = np.linalg.inv, {}

    def counted_inv(a):
        caller = sys._getframe(1).f_globals.get("__name__", "?").rsplit(".", 1)[-1]
        by_module[caller] = by_module.get(caller, 0) + int(np.prod(np.shape(a)[:-2]))
        return inv(a)

    np.linalg.inv = counted_inv
    try:
        for tag, build in builds.items():
            by_module.clear()
            build()
            counts[f"{tag}.linalg_inv_matrices"] = {"operators": 0, **by_module}
    finally:
        np.linalg.inv = inv


def measure_eulerian(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The Eulerian group: ``euler_rhs`` and ``step_rk4`` per call, the
    peakon ``integrate`` to ``PEAKON_T_END``, and the calls one step makes."""
    from numpy._core import einsumfunc  # as in measure_lagrangian()

    from epdifflab import epdiff
    from epdifflab import grid as grid_module
    from epdifflab.epdiff import (
        EulerState,
        euler_rhs,
        integrate,
        peakon_pair,
        step_rk4,
    )
    from epdifflab.operators import sobolev_multiplier

    peakon = _config_params(PEAKON_CONFIG, "amplitude", "separation", "width")
    steps, worker_steps = {}, {}
    for dim, n in EULER_GRIDS:
        tag = f"eulerian.d{dim}_n{n}"
        if dim == 1:
            grid = grid_module.TorusGrid(dim, n)
            mult = sobolev_multiplier(peakon["s"], grid)
            u = peakon_pair(grid, peakon["amplitude"], peakon["separation"], peakon["width"])
            state = EulerState.from_velocity(mult, u)
        else:
            mult, state = _bandlimited_state(dim, n)
        step = steps[tag] = functools.partial(step_rk4, mult, state, 0.5 * state.cfl)
        samples[f"{tag}.euler_rhs_ms"] = _per_call_ms(lambda: euler_rhs(mult, state.m), repeats)
        samples[f"{tag}.step_rk4_ms"] = _per_call_ms(step, repeats)
        if dim > 1:
            # a new grid per count, since a plan reads the count when it is built
            default = grid_module.TRANSFORM_WORKERS
            for workers in STEP_WORKERS:
                grid_module.TRANSFORM_WORKERS = workers
                mult, state = _bandlimited_state(dim, n)
                worker_steps[f"{tag}.step_rk4_workers{workers}"] = functools.partial(
                    step_rk4, mult, state, 0.5 * state.cfl)
            grid_module.TRANSFORM_WORKERS = default
            for _ in range(repeats):
                for workers in STEP_WORKERS:
                    key = f"{tag}.step_rk4_workers{workers}"
                    samples.setdefault(f"{key}_ms", []).extend(_per_call_ms(worker_steps[key], 1))

    grid = grid_module.TorusGrid(1, 256)
    mult = sobolev_multiplier(peakon["s"], grid)
    initial = EulerState.from_velocity(
        mult, peakon_pair(grid, peakon["amplitude"], peakon["separation"], peakon["width"]))
    run = functools.partial(integrate, mult, initial, PEAKON_T_END, peakon["dt"], cadence=10**9)
    samples["eulerian.peakon_integrate_ms"] = _per_call_ms(run, repeats)
    final = run().final_state
    values["eulerian.peakon_integrate.energy"] = final.energy
    values["eulerian.peakon_integrate.sup_gradient"] = final.sup_gradient
    # counted after every timing, as in measure_lagrangian()
    targets = [(grid_module, "_rfft"), (grid_module, "_irfft"), (grid_module, "_pool"), (epdiff, "_full"),
               (epdiff, "euler_rhs"), (epdiff, "_rhs_half"), (einsumfunc, "c_einsum")]
    counter = CallCounter([(module, name) for module, name in targets if hasattr(module, name)])
    for tag, step in steps.items():
        counts[f"{tag}.per_step"] = counter.calls_in(step)
    for key, step in worker_steps.items():
        counts[f"{key}.per_step"] = {"pool_submits": counter.calls_in(step)["epdifflab.grid._pool"]}
    counter.close()


def measure_certificates(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The certificate group: the symbol certificates that ``tower_oracle``
    and the audits run, per call, and the LAPACK eigen-solver calls of each."""
    import numpy as np

    from epdifflab import conjugation
    from epdifflab.grid import TorusGrid
    from epdifflab.operators import sobolev_multiplier
    from epdifflab.symbols import (
        _check_flags,
        check_normal_ellipticity,
        check_order_estimate,
        check_strong_ellipticity,
        shear_laplacian_symbol,
        sobolev_symbol,
        sqrt_symbol,
    )

    calls = {}
    for tag, symbol in (("shear_t1.99", shear_laplacian_symbol(1.99)), ("sobolev_d2", sobolev_symbol(1.5, 2))):
        calls[f"certificates.normal_{tag}"] = functools.partial(check_normal_ellipticity, symbol, CERT_SAMPLES)
        calls[f"certificates.strong_{tag}"] = functools.partial(check_strong_ellipticity, symbol, CERT_SAMPLES)
    for dim in (1, 2):
        symbol = sobolev_symbol(1.5, dim)
        root = sqrt_symbol(symbol)
        pts = np.random.default_rng(dim).uniform(-200.0, 200.0, size=(CERT_SAMPLES, dim))
        calls[f"certificates.sqrt_symbol_d{dim}"] = functools.partial(sqrt_symbol, symbol)
        calls[f"certificates.sqrt_eval_d{dim}"] = functools.partial(root, pts)
        calls[f"certificates.sqrt_order_d{dim}"] = functools.partial(check_order_estimate, root, max_alpha=2)
    identities = {f"certificates.sn_identity_d{dim}_n2": functools.partial(
        conjugation.verify_sn_identity, sobolev_symbol(1.5, dim), 2, num_tuples=100, seed=0) for dim in (1, 2)}
    calls.update(identities)
    grid = TorusGrid(3, 32)
    table = sobolev_multiplier(1.5, grid).table.reshape(-1, 3, 3)
    calls["certificates.check_flags_d3_n32"] = functools.partial(_check_flags, table, grid.frequency_points())
    for tag, call in calls.items():
        samples[f"{tag}_ms"] = _per_call_ms(call, repeats)
    # counted after every timing, as in measure_lagrangian()
    solvers = CallCounter([(np.linalg, name) for name in ("eigh", "eigvalsh", "eigvals")]
                          + [(conjugation, "_s_tensor_scaled")])
    for tag, call in calls.items():
        counts[tag] = {key.rsplit(".", 1)[1]: value for key, value in solvers.calls_in(call).items()}
    solvers.close()


def measure_guards(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The guard group: per ``integrate`` run, the time per outer step, and
    the exact samplings of the guards against their bound's evaluations."""
    from epdifflab import epdiff
    from epdifflab.epdiff import EulerState, default_blowup_threshold, gaussian_blob, integrate, peakon_pair
    from epdifflab.grid import TorusGrid
    from epdifflab.operators import sobolev_multiplier

    peakon = _config_params(PEAKON_CONFIG, "amplitude", "separation", "width")
    cadence = 200  # configs/peakon_blowup.ini
    grid = TorusGrid(1, 256)
    mult = sobolev_multiplier(peakon["s"], grid)
    state = EulerState.from_velocity(
        mult, peakon_pair(grid, peakon["amplitude"], peakon["separation"], peakon["width"]))
    threshold = default_blowup_threshold(state)
    runs = {  # as scenarios.run_evolution calls integrate
        "peakon_dt": functools.partial(integrate, mult, state, peakon["t_end"], peakon["dt"],
                                       cadence=cadence, norm_orders=(1.0,), grad_threshold=threshold),
        "peakon_dt2": functools.partial(integrate, mult, state, peakon["t_end"], peakon["dt"] / 2,
                                        cadence=2 * cadence, grad_threshold=threshold),
    }
    blob = _config_params(REPO / "configs" / "gaussian_blob.ini", "amplitude", "width")
    mult = sobolev_multiplier(blob["s"], TorusGrid(2, 64))
    state = EulerState.from_velocity(mult, gaussian_blob(mult.grid, blob["amplitude"], blob["width"]))
    runs["blob_d2_n64"] = functools.partial(
        integrate, mult, state, GUARD_BLOB_STEPS * blob["dt"], blob["dt"], cadence=10,
        norm_orders=(1.5,), grad_threshold=default_blowup_threshold(state))
    mult, state = _bandlimited_state(3, 32)
    runs["bandlimited_d3_n32"] = functools.partial(
        integrate, mult, state, 0.04, 0.01, cadence=2, norm_orders=(1.0,),
        grad_threshold=default_blowup_threshold(state))

    for tag, run in runs.items():
        result = run()
        _, initial, _, dt = run.args
        t_last = result.t_halt if result.t_halt is not None else result.final_state.t
        # a step that halts at dt_underflow or nan_abort ran too
        steps = round((t_last - initial.t) / dt) + (result.status in ("dt_underflow", "nan_abort"))
        values[f"guards.{tag}"] = {"status": result.status, "outer_steps": steps,
                                   "substeps": result.substeps, "retries": result.retries}
        samples[f"guards.{tag}.outer_step_us"] = [1e3 * ms / steps for ms in _per_call_ms(run, repeats)]
    # counted after every timing, as in measure_lagrangian(); each run builds its states anew
    targets = ["cfl_limit", "sup_velocity_gradient", "_guard_ceilings"]
    counter = CallCounter([(epdiff, name) for name in targets if hasattr(epdiff, name)])
    for tag, run in runs.items():
        counts[f"guards.{tag}"] = {key.rsplit(".", 1)[1]: value for key, value in counter.calls_in(run).items()}
    counter.close()


def _wall_ms_and_rusage(command: list[str], env: dict) -> tuple[float, int, float]:
    """Wall time in ms, exit code and maximum RSS in MB of one process."""
    start = perf_counter()
    process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    elapsed = perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen never waits
    return 1e3 * elapsed, process.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def measure_cli(repeats: int, samples: dict, counts: dict, values: dict) -> None:
    """The cli group: every shipped config and ``import epdifflab``, each
    in a fresh process, as a user runs them.

    On Linux a run's maximum RSS includes the resident set of the process
    that starts it, which the run holds until it execs, so this child
    imports neither numpy nor the package before the runs: it finds the
    package's ``src`` without importing it."""
    from importlib.util import find_spec

    src = Path(find_spec("epdifflab").submodule_search_locations[0]).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as out:
        runs = {"import_epdifflab": ["-c", "import epdifflab"]}
        for config in sorted((REPO / "configs").glob("*.ini")):
            runs[config.stem] = ["-m", "epdifflab.cli", "run", str(config), "--output-dir",
                                 str(Path(out) / config.stem), "--quiet"]
        for name, args in runs.items():
            tag = f"cli.{name}"
            traced = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                                    capture_output=True, text=True)
            imported = {line.rsplit("|", 1)[-1].strip() for line in traced.stderr.splitlines()}
            counts[tag] = {f"{module.replace('.', '_')}_imported": int(module in imported)
                           for module in ("scipy.ndimage", "concurrent.futures")}
            runs_of_name = [_wall_ms_and_rusage([sys.executable, *args], env) for _ in range(repeats)]
            samples[f"{tag}.wall_ms"] = [ms for ms, _, _ in runs_of_name]
            _, code, rss = runs_of_name[0]
            values[tag] = {"exit_code": code, "max_rss_mb": rss}


# Each group runs in a child process of its own, in this order within a round.
GROUPS = {"allocations": measure_allocations, "transforms": measure_transforms,
          "multiplier": measure_multiplier, "lagrangian": measure_lagrangian,
          "oracle": measure_oracle, "eulerian": measure_eulerian,
          "certificates": measure_certificates, "guards": measure_guards,
          "cli": measure_cli}


# --- the parent process -----------------------------------------------------------

def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def _export(ref: str, into: Path) -> str:
    """Extract the tree of ``ref`` into ``into``; return its SHA."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    if not sha:
        sys.exit(f"--baseline: {ref!r} is not a commit of {REPO}")
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha


def _run_child(src: Path, group: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, __file__, "--output", os.devnull, "--repeats", str(repeats),
                          "--groups", group, "--child", str(src)], env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"measuring {src} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _machine() -> dict:
    import numpy
    import scipy

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu_model": model, "cpus": cpus, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {var: "1" for var in THREAD_VARS}}


def _side(runs: list[dict], label: str, sha: str, modified: bool) -> dict:
    keys = runs[0]["samples"]
    return {
        "label": label,
        "git_sha": sha,
        "tree_modified": modified,
        "transform_workers": runs[0]["transform_workers"],
        "medians": {key: statistics.median(x for run in runs for x in run["samples"][key])
                    for key in keys},
        "round_medians": {key: [statistics.median(run["samples"][key]) for run in runs]
                          for key in keys},
        "samples": {key: [run["samples"][key] for run in runs] for key in keys},
        "counts": runs[0]["counts"],
        "values": runs[0]["values"],
    }


def _relative_change(parent: dict, change: dict) -> dict:
    """Per sample key that both sides measured: the change of the medians,
    the median over rounds of the change of the round medians (the two sides
    of a round run back to back, so host load that drifts between rounds
    cancels), and the rounds in which each side read lower.  A change
    relative to a parent value of 0 (page faults) is None."""
    out = {}
    for key, value in change["medians"].items():
        if key not in parent["medians"]:  # measured on one side only
            continue
        pairs = list(zip(parent["round_medians"][key], change["round_medians"][key]))
        ratios = [c / p for p, c in pairs if p]
        out[key] = {
            "of_medians": value / parent["medians"][key] - 1.0 if parent["medians"][key] else None,
            "paired": statistics.median(ratios) - 1.0 if ratios else None,
            "rounds_won": {"change": sum(c < p for p, c in pairs),
                           "parent": sum(p < c for p, c in pairs)},
        }
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.child is not None:
        record = measure(args.groups, args.repeats)
        import epdifflab

        if Path(epdifflab.__file__).resolve().parent.parent != args.child.resolve():
            sys.exit(f"epdifflab was imported from {epdifflab.__file__}, not from {args.child}")
        print(json.dumps(record))
        return 0
    groups = args.groups.split(",")
    if not set(groups) <= set(GROUPS):
        sys.exit(f"--groups: unknown {sorted(set(groups) - set(GROUPS))}; choose from {', '.join(GROUPS)}")
    head = _git("rev-parse", "HEAD")
    modified = bool(_git("status", "--porcelain", "--", "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": REPO / "src"}
        shas = {"change": head or "unavailable (not a git checkout)"}
        if args.baseline:
            shas["parent"] = _export(args.baseline, Path(tmp))
            sides = {"parent": Path(tmp) / "src", "change": REPO / "src"}
        runs = {label: [{"samples": {}, "counts": {}, "values": {}} for _ in range(args.rounds)]
                for label in sides}
        for r in range(args.rounds):
            for g, group in enumerate(groups):
                # a fresh child per group and side, the side that goes first alternating
                order = list(sides) if (r + g) % 2 == 0 else list(sides)[::-1]
                for label in order:
                    child, run = _run_child(sides[label], group, args.repeats), runs[label][r]
                    for part in ("samples", "counts", "values"):
                        run[part].update(child[part])
                    run["transform_workers"] = child["transform_workers"]
    record = {
        "command": "python bench/run_bench.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "config": str(CONFIG.relative_to(REPO)),
        "rounds": args.rounds,
        "groups": groups,
        "repeats": args.repeats,
        "machine": _machine(),
        "sides": {label: _side(runs[label], label, shas[label], label == "change" and modified)
                  for label in sides},
    }
    if "parent" in sides:
        record["relative_change"] = _relative_change(record["sides"]["parent"], record["sides"]["change"])
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for key, value in record["sides"]["change"]["medians"].items():
        line = f"{key:44s} {value:12.4f}"
        if key in record.get("relative_change", {}):
            delta = record["relative_change"][key]
            paired = "n/a" if delta["paired"] is None else f"{100 * delta['paired']:+6.1f}%"
            won = delta["rounds_won"]
            line += (f"  parent {record['sides']['parent']['medians'][key]:12.4f}"
                     f"  paired {paired:>7s}"
                     f"  lower: change {won['change']}, parent {won['parent']} of {args.rounds}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
