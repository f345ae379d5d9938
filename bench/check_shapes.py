#!/usr/bin/env python3
"""Assert the paper's shape claims on the figure benches' JSON result lines.

    ./build/bench/bench_fig9 | tail -n 1 | python3 bench/check_shapes.py

Each non-empty line on stdin must be the JSON object a figure bench prints
last (bench_fig2_qoe_vs_error, bench_fig9, bench_fig10_qoe,
bench_fig11_sensitivity). For every claim
the checker prints its name, the values compared and PASS or FAIL, and it
exits non-zero if any claim fails, a line does not parse, or no line arrives.

The claims are EXPERIMENTS.md's, checked at the scale they are made at: the
standard 16,000-session world. A line from any other scale is refused, not
checked, because a sparser world inverts some of them (at 3,000 sessions CS2P
trails LS in Fig. 9b and 9c; EXPERIMENTS.md, honest divergences). Known
divergences from the paper are asserted as divergences, so a change that
removes one fails here until the honest-divergence list and this file are
updated together. Some margins are narrow (LS 0.1404 against CS2P 0.1432 at
h=7; Fig. 10 kbps 1673 against 1670). Every bench is deterministic for one
build, so a narrow margin moves when the code or the toolchain (compiler,
libm, optimisation level) changes; the values quoted here were read from
Release and RelWithDebInfo builds with GCC on x86-64.

Standard library only.
"""

import json
import sys

CLAIM_SESSIONS = 16000


def fmt(value):
    return f"{value:.4g}"


class Checker:
    def __init__(self):
        self.failures = 0

    def claim(self, name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            self.failures += 1

    def below(self, name, low, high):
        """`low` = (label, value) is strictly below `high`."""
        self.claim(name, low[1] < high[1],
                   f"{low[0]} {fmt(low[1])} < {high[0]} {fmt(high[1])}")

    def best(self, name, values, who, lower=True):
        """`who` has the strictly lowest (or highest) of `values`."""
        others = {k: v for k, v in values.items() if k != who}
        rival = (min if lower else max)(others, key=others.get)
        if lower:
            self.below(name, (who, values[who]), (rival, others[rival]))
        else:
            self.below(name, (rival, others[rival]), (who, values[who]))


def column(predictors, key):
    return {name: stats[key] for name, stats in predictors.items()}


def check_fig2(check, line):
    at = dict(zip(line["errors"], zip(line["mpc"], line["bb"])))
    near_optimal = {err: mpc for err, (mpc, _) in at.items() if err <= 0.2}
    check.claim("2: MPC's n-QoE is at least 0.85 at every error up to 0.2",
                len(near_optimal) > 0 and min(near_optimal.values()) >= 0.85,
                ", ".join(f"{err}: {fmt(mpc)}" for err, mpc in near_optimal.items()))
    mpc, bb = at[0.8]
    check.below("2: MPC is above BB at error 0.8", ("BB", bb), ("MPC", mpc))
    mpc, bb = at[1.0]
    check.below("2: MPC falls below BB at error 1.0", ("MPC", mpc), ("BB", bb))


def check_fig9(check, line):
    a = line["fig9a"]["predictors"]
    check.best("9a: CS2P has the lowest initial median error",
               column(a, "median"), "CS2P")

    b = line["fig9b"]["predictors"]
    check.best("9b: CS2P has the lowest midstream median error",
               column(b, "median"), "CS2P")
    check.best("9b: CS2P has the lowest midstream p75 error",
               column(b, "p75"), "CS2P")
    check.below("9b: CS2P is below GHM (one HMM per cluster beats one global HMM)",
                ("CS2P", b["CS2P"]["median"]), ("GHM", b["GHM"]["median"]))

    horizons = line["fig9c"]["horizons"]
    c = line["fig9c"]["predictors"]
    for h in (1, 2, 3, 5):
        i = horizons.index(h)
        check.best(f"9c: CS2P is lowest at h={h}",
                   {name: medians[i] for name, medians in c.items()}, "CS2P")
    cs2p = c["CS2P"]
    check.claim("9c: CS2P's error never falls as h grows",
                all(x <= y for x, y in zip(cs2p, cs2p[1:])),
                " -> ".join(fmt(v) for v in cs2p))

    # Honest divergences (EXPERIMENTS.md).
    for h in (7, 10):
        i = horizons.index(h)
        check.below(f"divergence 9c: LS is below CS2P at h={h}",
                    ("LS", c["LS"][i]), ("CS2P", cs2p[i]))
    standard = a["CS2P"]["median"]
    fcc = line["fig9a"]["fcc_cs2p_median"]
    check.claim("divergence 9a: the FCC-style world's CS2P median is not below "
                "the standard world's", fcc >= standard,
                f"FCC {fmt(fcc)} >= standard {fmt(standard)}")
    i = line["fig9b"]["grid"].index(0.15)
    check.below("divergence 9b: at error 0.15, LS's CDF is above CS2P's",
                ("CS2P", b["CS2P"]["cdf"][i]), ("LS", b["LS"]["cdf"][i]))


def check_fig10(check, line):
    arms = line["arms"]
    real = {label: stats for label, stats in arms.items()
            if not label.startswith("Oracle")}
    check.best("10: CS2P+MPC has the highest median n-QoE of the real arms",
               column(real, "median"), "CS2P + MPC", lower=False)
    check.best("10: CS2P+MPC has the highest bitrate of the real arms",
               column(real, "kbps"), "CS2P + MPC", lower=False)
    check.below("10: Oracle+MPC is above CS2P+MPC",
                ("CS2P + MPC", arms["CS2P + MPC"]["median"]),
                ("Oracle + MPC", arms["Oracle + MPC"]["median"]))
    mpc = {label: stats["median"] for label, stats in arms.items()
           if label.endswith("+ MPC")}
    baselines = {label: arms[label]["median"] for label in ("BB", "RB (HM)", "FESTIVE")}
    weakest = min(mpc, key=mpc.get)
    strongest = max(baselines, key=baselines.get)
    check.below("10: every predictor+MPC arm is above BB, RB and FESTIVE",
                (strongest, baselines[strongest]), (weakest, mpc[weakest]))


def check_fig11(check, line):
    states = line["states"]
    mid = dict(zip(states["n"], states["midstream"]))
    check.claim("11: midstream error falls from N=2 to N=4 to N=6",
                mid[2] > mid[4] > mid[6],
                f"{fmt(mid[2])} > {fmt(mid[4])} > {fmt(mid[6])}")
    gained, beyond = mid[2] - mid[6], mid[6] - mid[10]
    check.claim("11: flat past N=6 (N=6 -> 10 gains under a quarter of N=2 -> 6)",
                beyond < 0.25 * gained,
                f"{fmt(beyond)} < 0.25 * {fmt(gained)}")

    sizes = line["min_cluster"]
    by_size = dict(zip(sizes["size"], sizes["midstream"]))
    moderate = [by_size[k] for k in (5, 10, 20)]
    check.below("11: min cluster 5-20 is below the strict thresholds 50 and 100",
                ("worst of 5-20", max(moderate)), ("min cluster=50", by_size[50]))
    check.below("11: the strictest threshold is worst",
                ("min cluster=50", by_size[50]), ("min cluster=100", by_size[100]))
    check.claim("11: 5-20 is flat next to the rise to 50",
                max(moderate) - min(moderate) < by_size[50] - max(moderate),
                f"spread {fmt(max(moderate) - min(moderate))} < rise "
                f"{fmt(by_size[50] - max(moderate))}")

    volume = line["train_fraction"]
    for key in ("initial", "midstream"):
        errs = dict(zip(volume["fraction"], volume[key]))
        check.claim(f"11: more training data lowers {key} error",
                    errs[0.25] > errs[0.5] > errs[1.0],
                    " > ".join(f"x{f} {fmt(errs[f])}" for f in (0.25, 0.5, 1.0)))

    # N=6 is the default configuration: MLE rule, median initial predictor.
    check.below("11: the MLE-state rule beats the posterior mean midstream",
                ("MLE", mid[6]),
                ("posterior mean", line["posterior_mean"]["midstream"]))
    # Honest divergence 8 (EXPERIMENTS.md).
    check.below("divergence 11: the mean initial predictor's error is below the "
                "median's (Eq. 6)", ("mean", line["mean_initial"]["initial"]),
                ("median", dict(zip(states["n"], states["initial"]))[6]))
    # Honest divergence 9: the paper puts ~4% of sessions on the global model.
    fallback = [rate for sweep in (states, sizes, volume) for rate in sweep["fallback"]]
    fallback += [line[row]["fallback"] for row in ("posterior_mean", "mean_initial")]
    check.claim("divergence 11: no configuration, min cluster 100 included, sends "
                "a session to the global model", max(fallback) == 0,
                f"largest fallback rate {fmt(max(fallback))} over {len(fallback)} rows")


CHECKS = {"fig2": check_fig2, "fig9": check_fig9, "fig10": check_fig10,
          "fig11": check_fig11}


def main():
    check = Checker()
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    if not lines:
        check.claim("input", False, "no result line on stdin")
    for text in lines:
        try:
            line = json.loads(text)
            bench = line["bench"]
            if bench not in CHECKS:
                check.claim("input", False, f"no claims for bench {bench!r}")
                continue
            sessions = line["sessions"]
            if sessions != CLAIM_SESSIONS:
                check.claim(f"{bench}: scale", False,
                            f"sessions {sessions}, but the claims are made at "
                            f"{CLAIM_SESSIONS}; run with CS2P_BENCH_SESSIONS unset")
                continue
            CHECKS[bench](check, line)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            check.claim("input", False,
                        f"not a result line ({type(e).__name__}: {e}): {text[:80]}")
    print(f"{check.failures} claim(s) failed" if check.failures else "all claims hold")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
