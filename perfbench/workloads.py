"""Seeded generator of the benchmark's inputs: token fields, input schedules
and run configs.

Every workload keeps its sizes fixed and draws only positions, covariances,
weights and flow seeds from the workload seed, so the same seed gives
byte-identical files and different seeds give jobs of the same cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    sizes: dict
    isolates: str


# Sizes are fixed per workload; BENCHMARK.json says why each one exists.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "flow_dense", ("compete",),
            {"tokens": 10_000, "dimension": 16, "clusters": 20,
             "covariance": "diagonal", "flow_seeds": 2, "steps": 2},
            "manifold (density, Christoffel, nearest) and load-time token validation"),
        Workload(
            "flow_sparse", ("compete",),
            {"tokens": 3, "dimension": 2, "covariance": "diagonal",
             "flow_seeds": 16, "steps": 75, "context_capacity": 16,
             "scheduled_inputs": 10},
            "cognition cycle, attention, sampling and the RK4 step"),
        Workload(
            "learn_churn", ("learn",),
            {"tokens": 2_000, "dimension": 8, "clusters": 8,
             "covariance": "diagonal, stored as 8x8 matrices", "cycles": 3},
            "learning update and field snapshot export"),
        Workload(
            "survey", ("analyze", "geodesic"),
            {"tokens": 16, "dimension": 3, "clusters": 4, "grid_points": 512,
             "covariance": "none", "shooting_steps": 100, "shooting_tol": 1e-10},
            "curvature survey, connectivity and the shooting solver"),
    )
}


def _clustered_means(rng, n, dim, n_clusters, spread, jitter):
    centers = rng.normal(0.0, spread, size=(n_clusters, dim))
    labels = np.arange(n) % n_clusters
    return centers[labels] + rng.normal(0.0, jitter, size=(n, dim)), centers


def _field(means, covariances, weights, bandwidth, epsilon):
    tokens = []
    for k, (mean, cov, weight) in enumerate(zip(means, covariances, weights)):
        entry = {"id": k + 1, "mean": mean.tolist()}
        if cov is not None:
            entry["covariance"] = cov.tolist()
        entry["weight"] = float(weight)
        tokens.append(entry)
    return {"dimension": int(means.shape[1]), "bandwidth": bandwidth,
            "epsilon": epsilon, "tokens": tokens}


def _flow_dense(rng):
    s = WORKLOADS["flow_dense"].sizes
    n, d = s["tokens"], s["dimension"]
    means, centers = _clustered_means(rng, n, d, s["clusters"], 3.0, 0.6)
    covs = rng.uniform(0.01, 0.05, size=(n, d))
    weights = rng.uniform(0.5, 1.5, size=n)
    field = _field(means, covs, weights, 1.0, 0.5)
    config = {
        "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2},
        "simulation": {"steps": s["steps"], "dt": 0.01,
                       "seeds": _flow_seeds(rng, s["flow_seeds"]),
                       "start": centers[0].tolist(),
                       "velocity": rng.normal(0.0, 0.3, size=d).tolist()},
        "competition": {"threshold": -1.0},
    }
    return field, None, config


def _flow_sparse(rng):
    s = WORKLOADS["flow_sparse"].sizes
    demo = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    means = demo + rng.normal(0.0, 0.05, size=demo.shape)
    covs = rng.uniform(0.005, 0.02, size=demo.shape)
    field = _field(means, covs, np.ones(len(demo)), 1.0, 0.5)
    steps = np.sort(rng.choice(s["steps"], size=s["scheduled_inputs"], replace=False))
    schedule = [{"step": int(k), "vector": rng.uniform(-0.5, 2.5, size=2).tolist()}
                for k in steps]
    config = {
        "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2,
                      "context_capacity": s["context_capacity"]},
        "simulation": {"steps": s["steps"], "dt": 0.01,
                       "seeds": _flow_seeds(rng, s["flow_seeds"]),
                       "start": [0.0, 0.0],
                       "velocity": (np.array([0.3, 0.2])
                                    + rng.normal(0.0, 0.02, size=2)).tolist(),
                       "inputs": "schedule.json"},
        "competition": {"threshold": -1.0},
    }
    return field, schedule, config


def _learn_churn(rng):
    s = WORKLOADS["learn_churn"].sizes
    n, d = s["tokens"], s["dimension"]
    means, centers = _clustered_means(rng, n, d, s["clusters"], 2.0, 0.5)
    scales = rng.uniform(0.01, 0.05, size=(n, d))
    covs = np.einsum("nd,de->nde", scales, np.eye(d))
    weights = rng.uniform(0.5, 1.5, size=n)
    field = _field(means, covs, weights, 1.0, 0.5)
    config = {
        "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2},
        "simulation": {"dt": 0.01, "seeds": _flow_seeds(rng, 1),
                       "start": centers[0].tolist(),
                       "velocity": rng.normal(0.0, 0.3, size=d).tolist()},
        "learning": {"rate": 0.2, "cycles": s["cycles"],
                     "input": (centers[0] + 0.5).tolist()},
    }
    return field, None, config


def _survey(rng):
    s = WORKLOADS["survey"].sizes
    d, n_clusters = s["dimension"], s["clusters"]
    # Fixed cluster layout with small seeded offsets and weights. On seeds
    # 1-200 the shooting miss after three Gauss-Newton iterations lies in
    # [9e-9, 3e-6] and after four in [5e-15, 8e-13], so a tolerance of 1e-10
    # gives four iterations (17 shots) on every seed, with two orders of
    # magnitude to spare on each side.
    centers = np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0],
                        [0.0, 1.5, 0.0], [0.0, 0.0, 1.5]])
    labels = np.arange(s["tokens"]) % n_clusters
    means = centers[labels] + rng.normal(0.0, 0.05, size=(s["tokens"], d))
    weights = rng.uniform(0.8, 1.2, size=s["tokens"])
    field = _field(means, [None] * len(means), weights, 1.0, 0.5)
    config = {
        "geodesic": {"start": [-1.5, 0.6, 0.0], "end": [1.5, 0.6, 0.0],
                     "tol": s["shooting_tol"], "max_iters": 50,
                     "steps": s["shooting_steps"]},
    }
    return field, None, config


_GENERATORS = {"flow_dense": _flow_dense, "flow_sparse": _flow_sparse,
             "learn_churn": _learn_churn, "survey": _survey}


def _flow_seeds(rng, n):
    return sorted(int(x) for x in rng.choice(1_000_000, size=n, replace=False))


def generate(workload: str, seed: int, directory: Path) -> Path:
    """Write the workload's field, schedule and config into directory and
    return the config path. The same (workload, seed) gives the same bytes."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    field, schedule, config = _GENERATORS[workload](rng)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "field.json").write_text(json.dumps(field) + "\n")
    if schedule is not None:
        (directory / "schedule.json").write_text(json.dumps(schedule) + "\n")
    config = {"field": "field.json", "metric": {"kind": "field"}, **config,
              "output": {"directory": "out", "format": "json"}}
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
