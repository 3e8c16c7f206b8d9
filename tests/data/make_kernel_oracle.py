"""Write kernel_oracle.json: exact gain-loss moments of seeded random cases.

    python tests/data/make_kernel_oracle.py

Each case draws a gain K log-uniform in [1e-8, 1], a stage in 1..1000 and a
split alpha (1/2 or uniform), for the worked example (mu, sigma) = (-0.1,
0.15) and three daily-volatility models. The mean and variance come from the
exact rational oracle, bench/oracle.py, and are stored rounded once to
double; so is the off-balance mean's scale alpha*(1+K*mu)**k +
(1-alpha)*(1-K*mu)**k. At stage 1000 one case takes the oracle about half a
second, which is why the suite reads this table instead of recomputing it.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "bench"))
import oracle  # noqa: E402

SEED = 20250415
N_CASES = 520
MODELS = ((-0.1, 0.15), (0.0005, 0.02), (-0.0003, 0.015), (0.001, 0.035))


def main() -> None:
    rng = random.Random(SEED)
    rows = []
    for i in range(N_CASES):
        mu, sigma = MODELS[i % len(MODELS)]
        k_gain = 10.0 ** rng.uniform(-8.0, 0.0)
        stage = rng.randint(1, 1000)
        alpha = 0.5 if rng.random() < 0.5 else rng.random()
        m = oracle.moments_from_mu_sigma(mu, sigma)
        a, theta = Fraction(alpha), Fraction(k_gain) * m.mu
        rows.append({
            "mu": mu, "sigma": sigma, "k_gain": k_gain, "stage": stage, "alpha": alpha,
            "mean": float(oracle.exact_mean(m, k_gain, stage, 1, a)),
            "variance": float(oracle.exact_variance(m, k_gain, stage, 1, a)),
            "scale": float(a * (1 + theta) ** stage + (1 - a) * (1 - theta) ** stage),
        })
    lines = ",\n".join(json.dumps(row) for row in rows)
    (HERE / "kernel_oracle.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
