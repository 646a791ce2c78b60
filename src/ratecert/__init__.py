"""Certified worst-case convergence rates for gradient descent whose step
size varies inside a known interval, plus a simulator that validates every
certificate against sampled trajectories.

The names below are imported from their modules on first access (PEP 562),
so ``import ratecert`` alone loads no numpy: that waits for the first name
that needs it.
"""

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "search": (
        "Certificate", "CertifyOptions", "SECTOR", "SolverBudgetExceeded",
        "WEIGHTED_OFF_BY_1", "Witness", "ZAMES_FALB", "certify", "closed_form_rate",
        "lambda_interval_sector",
    ),
    "certifier": (
        "NotPositiveDefinite", "cond_spd", "eig_sym", "feasible_at_rho", "max_eigenvalue",
        "verify_certificate",
    ),
    "ellipsoid": ("ellipsoid_feasibility",),
    "iqc": (
        "LmiData", "WeightOutOfRange", "augment", "default_weights", "quad_form", "sector",
        "weighted_off_by_1", "zames_falb",
    ),
    "model": (
        "FunctionClass", "InvalidC", "StepSizeInterval", "interval_asymmetric",
        "interval_from_c",
    ),
    "simulator": (
        "AdversarialGreedy", "Alternating", "CertificateMissing", "Constant", "Endpoints",
        "QuadraticProblem", "TrajectoryReport", "Uniform", "UnknownPolicy",
        "policy_from_name", "run", "sample_alpha", "step",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("certifier", "ellipsoid", "iqc", "model", "simulator")

__version__ = "0.1.0"

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
