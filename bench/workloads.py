"""The benchmark's workloads: the config each one runs and how it is run.

The harness writes each workload's config itself, from the workload seed, so
the program under test sees only that file. Every workload is run through
``ethlab.cli.main`` with the same argument vectors a user would type.
Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

import copy
from dataclasses import dataclass

# Dynamics settings of the bundled `ethlab demo` config.
DEMO_DYNAMICS = {"t_max": 6.0, "t_points": 61, "otoc_points": 7,
                 "sigma_omega": 0.08, "omega_points": 201}

STATIC_STAGES = ("generate", "extract", "code-error")
ALL_STAGES = ("generate", "extract", "code-error", "dynamics", "bounds")

SWEEP_WORKERS = 2

STAGE_FILES = {
    "generate": ("spectrum.ethb", "operator.ethb", "entropy.csv"),
    "extract": ("profile.csv", "envelope.csv", "extract.json"),
    "code-error": ("code_error.json",),
    "dynamics": ("correlator_f2_beta1.csv", "correlator_fsym_beta1.csv",
                 "correlator_resp_beta1.csv", "correlator_otoc_beta1.csv",
                 "spectral_density_beta1.csv", "dynamics.json"),
    "bounds": ("bounds.json",),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config(seed)`` gives the run config, ``argvs(cfg, out)`` the CLI
    argument vectors of one run, ``points`` the output directories (relative
    to the run's output directory) each holding one pipeline run, and
    ``stages`` the stages each point must have run.
    """

    name: str
    base: dict
    stages: tuple
    blas_threads: int
    workers: int = 1
    points: tuple = ("",)

    def config(self, seed):
        return dict(copy.deepcopy(self.base), seed=int(seed))

    def argvs(self, cfg_path, out):
        common = ["--config", cfg_path, "--out", out]
        if self.workers > 1:
            return [["sweep"] + common]
        if self.stages == ALL_STAGES:
            return [["demo"] + common]
        return [[stage] + common for stage in self.stages]

    def expected_files(self):
        files = [f"{p}/{f}" if p else f
                 for p in self.points
                 for s in self.stages for f in STAGE_FILES[s]]
        files.append("manifest.json")
        if self.workers > 1:
            files.append("aggregate.csv")
        return files


def demo(n_sites=10):
    """The `ethlab demo` config: mixed-field Ising chain, Z_0, beta=1."""
    base = {"slack": 10.0,
            "model": {"kind": "ising", "n_sites": n_sites},
            "observable": {"sites": [0], "paulis": "Z"},
            "thermal": {"betas": [1.0]},
            "code": {"k": 1, "d": 1},
            "dynamics": dict(DEMO_DYNAMICS)}
    return Workload(name=f"demo-L{n_sites}", base=base, stages=ALL_STAGES,
                    blas_threads=2)


def static(n_sites=12):
    """Ising chain with Z_0 and default blocks, static stages only."""
    base = {"model": {"kind": "ising", "n_sites": n_sites},
            "observable": {"sites": [0], "paulis": "Z"}}
    return Workload(name=f"ising-L{n_sites}-static", base=base,
                    stages=STATIC_STAGES, blas_threads=2)


def sweep(dims=(512, 1024, 2048)):
    """`ethlab sweep` over flat synthetic spectra with the demo dynamics.

    One BLAS thread per worker keeps the process tree at ``SWEEP_WORKERS``
    threads, which is ``nproc`` on the reference box.
    """
    base = {"model": {"kind": "synthetic", "dim": dims[0], "dos_shape": "flat"},
            "dynamics": dict(DEMO_DYNAMICS),
            "sweep": {"grid": {"model.dim": list(dims)}, "workers": SWEEP_WORKERS}}
    points = tuple(f"points/model.dim={d}" for d in dims)
    return Workload(name="synth-sweep", base=base, stages=ALL_STAGES,
                    blas_threads=1, workers=SWEEP_WORKERS, points=points)


WORKLOADS = {w.name: w for w in (demo(), static(), sweep())}
