"""Despreader and signal-estimator transfer curves.

Estimates the despreader's prior-to-extrinsic LLR-mean map two ways (by
running the production despreading kernel on sampled priors, and by the
closed sampling approximation), shows that the approximation is a tight
upper bound, and runs the two-curve convergence check against the signal
estimator.  Writes the three curves as one CSV in the working directory;
plots them if matplotlib is available."""

import numpy as np

import ffspread as ff

S, L, K = 2, 8, 8
EB_N0_DB = 7.0
SAMPLES = 20_000          # bump to >= 1e5 for publication-grade error bars
GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0)

print(f"despreader transfer curve, s={S}, L={L}, {SAMPLES} samples/point")
exact = ff.ffdes_exact_curve(S, L, grid=GRID, samples=SAMPLES, seed=1)
approx = ff.ffdes_approx_curve(S, L, grid=GRID, samples=SAMPLES, seed=2)

print(f"{'m_a':>6} {'exact':>10} {'approx':>10} {'ratio':>7}")
for i, m_a in enumerate(GRID):
    ex, ap = exact.m_e[i], approx.m_e[i]
    ratio = ap / ex if ex else float("nan")
    print(f"{m_a:6.2f} {ex:10.4f} {ap:10.4f} {ratio:7.4f}")
print("the approximation upper-bounds the kernel estimate and stays within")
print("a few percent over the operating range; both grow linearly past the")
print("small-prior knee with slope near the closed form",
      f"g({S},{L}) = {float(ff.g_closed_form(S, L)):.4f}")

ese = ff.ese_curve(K, L, 10 ** (EB_N0_DB / 10), grid=GRID, samples=SAMPLES, seed=3)
print(f"\nsignal estimator at Eb/N0 = {EB_N0_DB} dB saturates toward "
      f"4(Eb/N0)/L = {4 * 10 ** (EB_N0_DB / 10) / L:.3f}:")
print(np.round(ese.m_e, 3))

res = ff.tunnel_check(S, L, K, 10 ** (EB_N0_DB / 10), samples=SAMPLES, seed=4)
if res.converges:
    print("\ntunnel check: prior means grow past the tracking window")
else:
    print(f"\ntunnel check: iteration settles at despreader output mean "
          f"{res.stuck_at:.2f} (uncoded transmission cannot drive the "
          f"means to infinity at finite Eb/N0)")

ff.write_curves_csv(f"transfer_s{S}_L{L}_K{K}.csv", exact=exact, approx=approx, ese=ese)
print(f"\nwrote transfer_s{S}_L{L}_K{K}.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.plot(exact.m_a, exact.m_e, "o-", label="despreader (kernel)")
    ax.plot(approx.m_a, approx.m_e, "s--", label="despreader (approximation)")
    ax.plot(ese.m_a, ese.m_e, "^-", label=f"signal estimator @ {EB_N0_DB} dB")
    ax.set_xlabel("prior LLR mean $m_a$")
    ax.set_ylabel("extrinsic LLR mean $m_e$")
    ax.legend()
    ax.set_title(f"transfer curves, s={S}, L={L}, K={K}")
    fig.tight_layout()
    fig.savefig("transfer_curves.png", dpi=120)
    print("wrote transfer_curves.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
