"""SHA-256 digests of the trusted coefficients of solved scenarios.

Each digest covers the raw bytes of one coefficient jet through its
``valid_degree`` (series, t-order and matrix entry), so two runs agree
exactly when every trusted coefficient is bitwise equal.  A jet stores
exactly those coefficients, so the digest hashes its stored prefix.

Regenerate the fixture (only when a change to trusted coefficients is
intended and documented):

    PYTHONPATH=src python tests/golden_trusted.py tests/data/golden_trusted.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings

from ricciflat import SolverConfig, builtin_metric, solve

# (metric spec, t_order M, space degree D): the benchmark sizes of the
# perturbed workloads at n = 1, 2, 4, the Fubini-Study chart at n = 1 and
# at n = 2 (complex coefficients), and a perturbed n = 3 metric.
SCENARIOS = (
    ("perturbed_flat:1,0.1,7,2", 8, 12),
    ("perturbed_flat:2,0.1,0,2", 5, 12),
    ("perturbed_flat:2,0.1,0,2", 4, 10),
    ("perturbed_flat:4,0.1,0,2", 3, 4),
    ("fubini_study_chart:1,1", 8, 12),
    ("fubini_study_chart:2,1", 4, 10),
    ("perturbed_flat:3,0.1,1,2", 3, 8),
)


def scenario_key(spec: str, M: int, D: int) -> str:
    return f"{spec} M{M} D{D}"


def solve_scenario(spec: str, M: int, D: int):
    name, _, rest = spec.partition(":")
    params = [int(p) if p.lstrip("-").isdigit() else float(p) for p in rest.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(builtin_metric(name, params, D), SolverConfig(t_order=M))


def _digest(jet) -> list:
    vd = jet.valid_degree
    return [vd, hashlib.sha256(jet.prefix.tobytes()).hexdigest() if vd >= 0 else None]


def trusted_digests(sol) -> dict:
    """{'<series>[<i>,<j>] t^<m>': [valid_degree, sha256 or None]}."""
    out = {}
    for name in ("v", "w_inv", "exp_u"):
        for m, jet in enumerate(getattr(sol, name).coeffs):
            out[f"{name} t^{m}"] = _digest(jet)
    for i in range(sol.n):
        for j in range(sol.n):
            for m, jet in enumerate(sol.g.entries[i][j].coeffs):
                out[f"g[{i},{j}] t^{m}"] = _digest(jet)
    return out


def all_digests() -> dict:
    return {
        scenario_key(*sc): trusted_digests(solve_scenario(*sc)) for sc in SCENARIOS
    }


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(all_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
