"""Reference asymptotic key rate, one (n, m) term at a time.

For each announcement type a plain double loop over the photon numbers
(n, m) forms the gain p_n p_m sift_t Y[n, m] and its error-weighted twin,
adds the privacy-amplified key terms (1,1), (1,2) and (2,1) with
1 - h(e_ph) from `phase_bound` at the term's bit error rate, and subtracts
the type's error-correction cost.  The MDI-BB84 comparator keeps the (1,1)
term of both types, with its phase error from the test basis, and pays
the error correction of both types merged.  `oracle_values` gives each
type's gain, error-weighted gain and key term at any emission, and
`oracle_point` the key fractions of a configured scenario from them.  It
shares the relay yields, the sources and the phase-error bounds with
`mdi_sarg04`, but none of the rate assembly; the tests compare the two.
"""

from math import log2

from mdi_sarg04.bounds import phase_bound
from mdi_sarg04.config import ScenarioConfig
from mdi_sarg04.optics import ChannelParams, DetectorParams, relay_yields
from mdi_sarg04.sources import poisson_probs, spdc_heralded

N_MAX = 2
SIFT = {"sarg04": {1: 1 / 4, 2: 1 / 8}, "bb84": {1: 1.0, 2: 1.0}}
INCLUDED = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}


def _h(x: float) -> float:
    return 0.0 if x <= 0.0 or x >= 1.0 else -x * log2(x) - (1 - x) * log2(1 - x)


def _gains(y, p: list[float], protocol: str, t: int) -> tuple[float, float]:
    """Q_t and the error-weighted gain Q_t E_tot,t, summed term by term."""
    q_tot = errors = 0.0
    for n in range(N_MAX + 1):
        for m in range(N_MAX + 1):
            weight = p[n] * p[m] * SIFT[protocol][t]
            q_tot += weight * y[n][m][2 * t - 2]
            errors += weight * y[n][m][2 * t - 1]
    return q_tot, errors


def oracle_values(
    det: DetectorParams,
    t_arm: float,
    p: list[float],
    scenario: str,
    photon_terms: str = "up_to_two",
) -> list[float]:
    """[Q_1, Q_1 E_tot,1, K_1, Q_2, Q_2 E_tot,2, K_2] of the scenario's relay
    at the one-arm transmittance t_arm and the emission probabilities p of
    both senders: per type the gain, the error-weighted gain and the key
    term, the sum of the privacy-amplified key terms."""
    if scenario == "bb84_baseline":
        return _bb84(det, t_arm, p)
    y = relay_yields(det, t_arm, qnd=scenario == "qnd_coherent")
    key_terms = [(1, 1)] if photon_terms == "one_one_only" else [(1, 1), (1, 2), (2, 1)]
    values = []
    for t in (1, 2):
        key = 0.0
        for n, m in key_terms:
            yld = y[n][m][2 * t - 2]
            if yld > 0:
                e_ph = phase_bound((n, m), t, y[n][m][2 * t - 1] / yld).e_ph
                key += p[n] * p[m] * SIFT["sarg04"][t] * yld * (1 - _h(min(e_ph, 0.5)))
        values += [*_gains(y, p, "sarg04", t), key]
    return values


def _bb84(det: DetectorParams, t_arm: float, p: list[float]) -> list[float]:
    """The comparator's values: the gains of the key basis, and the (1,1)
    key term with the phase error of the test basis."""
    key = relay_yields(det, t_arm, "bb84", "key")
    test = relay_yields(det, t_arm, "bb84", "test")
    test_yield = test[1][1][0] + test[1][1][2]
    e_ph = (test[1][1][1] + test[1][1][3]) / test_yield if test_yield > 0 else 0.5
    values = []
    for t in (1, 2):
        q11 = p[1] * p[1] * key[1][1][2 * t - 2]
        values += [*_gains(key, p, "bb84", t), q11 * (1 - _h(min(e_ph, 0.5)))]
    return values


def oracle_point(config: ScenarioConfig, distance_km: float, mu: float) -> dict[str, float]:
    """G1, G2, total, e_tot_1 and e_tot_2 of the configured scenario at one
    distance and mean photon number, per (heralded) pulse pair."""
    det = DetectorParams(eta=config.eta, dark=config.dark)
    t_arm = ChannelParams(config.loss_db_per_km, distance_km).t_arm
    if config.scenario == "spdc_heralded":
        p = spdc_heralded(mu, det, N_MAX, config.spdc_pair_statistics)[1]
    else:
        p = poisson_probs(mu, N_MAX)
    f = config.ec_inefficiency
    q1, errors1, key1, q2, errors2, key2 = oracle_values(
        det, t_arm, p, config.scenario, config.photon_terms
    )
    totals = ((1, q1, errors1), (2, q2, errors2))
    out = {f"e_tot_{t}": errors / q if q > 0 else 0.0 for t, q, errors in totals}
    if config.scenario == "bb84_baseline":
        # both types merged: one error-correction cost, one key
        q_all, errors_all = q1 + q2, errors1 + errors2
        rate = 0.0
        if q_all > 0:
            rate = max(key1 + key2 - f * q_all * _h(min(errors_all / q_all, 1.0)), 0.0)
        return {**out, "G1": 0.0, "G2": 0.0, "total": rate}
    for t, q_tot, key in ((1, q1, key1), (2, q2, key2)):
        out[f"G{t}"] = key - f * q_tot * _h(min(out[f"e_tot_{t}"], 1.0))
    out["total"] = sum(max(out[f"G{t}"], 0.0) for t in INCLUDED[config.type_selection])
    return out
