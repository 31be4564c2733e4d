"""Desk-scale multi-user BER sweep and slope fit.

Simulates the 8-user system at a reduced frame length, fits the slope of
ln(BER) against linear Eb/N0 inside the low-BER window, and compares it
with the closed-form standard slope and the single-user benchmark.
Expect a few minutes of runtime; raise N or the error targets for
smoother curves."""

import math

import ffspread.cli as cli
from ffspread.slope import standard_slope

S = 1
CFG = cli.RunConfig(
    k=8, s=S, l=8, n=3000 // S, eb_n0_db=(7.0, 7.5, 8.0, 8.5),
    iterations=50, seed=3, workers=2, min_errors=100, max_frames=40,
)

print(f"simulating {CFG.k} users, s={CFG.s}, L={CFG.l}, "
      f"{CFG.s * CFG.n} info bits/user/frame")
records = cli.run_ber_sweep(CFG)
print(f"\n{'Eb/N0 dB':>9} {'frames':>7} {'errors':>7} {'BER':>10} {'single-user':>12}")
for r in records:
    su = 0.5 * math.erfc(math.sqrt(10 ** (r.eb_n0_db / 10)))
    print(f"{r.eb_n0_db:9.2f} {r.frames:7d} {r.errors:7d} {r.ber:10.3e} {su:12.3e}")

try:
    slope = cli.fit_slope(records, window=(1e-4, 1e-2))
    print(f"\nfitted |slope| of ln BER vs linear Eb/N0: {slope:.4f}")
    print(f"standard slope for s={S}, L=8:            "
          f"{standard_slope(S, 8):.4f}")
    print("(the repetition case tracks the single-user curve; rerun with")
    print(" S = 2 to see the steeper joint-spreading slope)")
except cli.FitError as exc:
    print(f"\nslope fit unavailable: {exc}")
