"""Random instance generation and paired verification campaigns.

A campaign runs ``trials`` seeded (instance, shift) pairs through the full
pipeline and the brute-force oracle, collecting per-trial reports.  Trial i
of a campaign with base seed s uses seed s+i for both the instance draw and
the grid shift, so a single ``gen``/``solve`` run with seed s+i reproduces
trial i exactly.

Instances are drawn uniformly within the configured caps and redrawn (from
the same seeded stream, hence reproducibly) until the preprocessed horizon
fits the campaign's horizon cap, which also keeps the exhaustive oracle
within its caps (``oracle.MAX_GROUPS`` and ``MAX_NODES``).  Trials may run
in a process pool; results are merged in trial order, so summaries and
solution data are identical for any worker count.

A result has two reports: the summary, an artifact that holds answers only,
and one CSV row per trial, which carries the counters and timing and which
the CLI appends under the one CSV_HEADER that ``solve`` rows share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .jobs import JobInstance, make_instance, perturb_release_times, total_horizon
from .oracle import VerifyReport, verify_pair

CSV_HEADER = "seed,n,P,K,shift,T,dp_cost,oracle_cost,states,ms"
MAX_DRAW_ATTEMPTS = 1000


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    trials: int = 1
    K: int = 2
    epsilon: Fraction = Fraction(1)
    n_max: int = 4
    p_max: int = 4
    w_max: int = 4
    horizon_max: int = 64
    cost_model: str = "weighted_length"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if min(self.n_max, self.p_max, self.w_max, self.horizon_max, self.workers) < 1:
            raise ValueError("size caps and workers must be >= 1")


def csv_row(*cells: int | None) -> str:
    """One row of the CSV_HEADER columns, in order; a cost not computed (None) is blank."""
    return ",".join("" if c is None else str(c) for c in cells)


def random_instance(
    rng: Random, n_max: int, p_max: int, w_max: int, epsilon: Fraction = Fraction(1)
) -> JobInstance:
    """Uniform draw within the caps; releases land in [0, p_max].  The
    instance carries ``epsilon``, so a later solve without one uses it."""
    n = rng.randint(1, n_max)
    triples = [
        (rng.randint(0, p_max), rng.randint(1, p_max), rng.randint(1, w_max))
        for _ in range(n)
    ]
    return make_instance(triples, epsilon)


def campaign_instance(seed: int, cfg: CampaignConfig) -> JobInstance:
    """Seeded draw, redrawn until the preprocessed horizon fits the cap."""
    rng = Random(seed)
    for _ in range(MAX_DRAW_ATTEMPTS):
        inst = random_instance(rng, cfg.n_max, cfg.p_max, cfg.w_max, cfg.epsilon)
        work = perturb_release_times(inst)
        if total_horizon(work) <= cfg.horizon_max:
            return inst
    raise RuntimeError(
        f"no instance under horizon cap {cfg.horizon_max} in {MAX_DRAW_ATTEMPTS} draws; "
        "loosen the caps"
    )


def run_trial(cfg: CampaignConfig, trial: int) -> VerifyReport:
    seed = cfg.seed + trial
    instance = campaign_instance(seed, cfg)
    return verify_pair(
        instance,
        K=cfg.K,
        seed=seed,
        epsilon=cfg.epsilon,
        cost_model=cfg.cost_model,
    )


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    reports: tuple[VerifyReport, ...]

    @property
    def verified(self) -> int:
        return sum(1 for r in self.reports if r.ok)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.skipped)

    @property
    def failures(self) -> tuple[VerifyReport, ...]:
        return tuple(r for r in self.reports if not r.ok and not r.skipped)

    def summary_dict(self) -> dict:
        """Campaign summary; it holds answers only, no timing and no search
        counters, so the output is byte-identical across repeated runs and
        worker counts, and a change to the search alone leaves it unchanged."""
        rows = [
            {
                "trial": trial,
                "seed": r.seed,
                "status": r.status,
                "n": r.n,
                "P": r.P,
                "T": r.T,
                "shift": r.shift,
                "dp_cost": r.dp_cost,
                "oracle_cost": r.oracle_cost,
                "dp_selection": list(r.dp_selection or ()),
                "oracle_selection": list(r.oracle_selection or ()),
            }
            for trial, r in enumerate(self.reports)
        ]
        return {
            "K": self.config.K,
            "epsilon": str(self.config.epsilon),
            "seed": self.config.seed,
            "trials": self.config.trials,
            "verified": self.verified,
            "failed": len(self.failures),
            "skipped": self.skipped,
            "results": rows,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary_dict(), sort_keys=True, indent=2) + "\n"

    def csv_lines(self) -> list[str]:
        """One CSV_HEADER row per trial, in trial order, without the header:
        the writer adds it to a new or empty file."""
        return [
            csv_row(r.seed, r.n, r.P, r.K, r.shift, r.T, r.dp_cost, r.oracle_cost,
                    r.dp_states, round(r.dp_ms + (r.oracle_ms or 0.0)))
            for r in self.reports
        ]


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run all trials, in a process pool when ``cfg.workers`` > 1.

    Reports come back in trial order regardless of scheduling, so any two
    runs of the same config produce identical results.
    """
    trials = range(cfg.trials)
    if cfg.workers <= 1:
        reports = [run_trial(cfg, t) for t in trials]
    else:
        # imported here: the pool's modules cost a serial campaign, and
        # every command that imports this module, tens of milliseconds
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            reports = list(pool.map(run_trial, [cfg] * cfg.trials, trials))
    return CampaignResult(config=cfg, reports=tuple(reports))
