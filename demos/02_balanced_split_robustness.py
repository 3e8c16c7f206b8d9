"""Why the even long/short split is special.

With half the account long and half short, the expected cumulative gain-loss
is positive after two or more stages for every nonzero drift, whatever its
sign, and it never shrinks as the horizon grows. Any other split admits a
drift that loses money in expectation; this script finds such drifts
automatically and shows the classic failure window of an uneven split.
"""

from longshort import check_robust_growth, check_rpe, expected_gain, find_rpe_counterexample

print("balanced split, gain K=0.5, ten stages:")
for mu in (-0.2, -0.05, 0.05, 0.2):
    res = check_rpe(0.5, 10, mu)
    print(f"  mu = {mu:+.2f}: E[G] = {res.value:+.6f}  positive: {res.positive}")
print(f"  mu =  0.00: E[G] = {check_rpe(0.5, 10, 0.0).value:+.6f} (flat market earns nothing)")

# The expected gain reads the gain K and the drift mu only through theta = K*mu,
# so the search takes a split and a stage and no gain.
print("\nuneven splits admit losing drifts (witness in scaled drift theta = K*mu):")
for alpha in (0.0, 0.25, 0.4, 0.5, 0.6, 1.0):
    witness = find_rpe_counterexample(alpha, stage=4)
    if witness is None:
        print(f"  alpha = {alpha:.2f}: no counterexample exists")
    else:
        print(
            f"  alpha = {alpha:.2f}: theta = {witness.theta:+.6f} "
            f"loses {witness.gain_value:+.6f}"
        )

print("\nfailure window for alpha = 1/4 with K = mu = 1/2:")
for k in range(1, 8):
    value = expected_gain(0.25, 0.5, k, 0.5)
    tag = "loss" if value < 0 else "gain"
    print(f"  stage {k}: E[G] = {value:+.6f}  ({tag})")
print("losses through stage 5, profitable from stage 6 on: positivity is not")
print("merely a long-horizon effect for the balanced split, which is positive")
print("from stage 2 onward for any nonzero drift.")

print("\nexpected gain never shrinks with the horizon (balanced split):")
checks = [check_robust_growth(0.7, k, -0.15) for k in range(1, 30)]
print(f"  stages 1..29 at K=0.7, mu=-0.15: all nondecreasing -> {all(checks)}")
