"""Gain assembly and asymptotic key-rate evaluation.

Combines source photon-number statistics with the relay response to form
per-(n,m) gains, applies the phase-error bounds, and evaluates the
asymptotic key-rate formula per announcement type, plus a simplified
MDI-BB84 comparator.  Infinite decoy states are assumed: every
per-photon-number gain and error rate is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import binary_entropy, phase_bound
from .optics import DetectorParams, error_rate, relay_yields
from .sources import HeraldedSource, PhotonNumberDist

# probability that the broadcast rotation labels satisfy the sifting rule:
# k = k' for Type1 (1/4), k = k' restricted to {0, 2} for Type2 (1/8)
SIFT_FACTOR = {1: 0.25, 2: 0.125}

KEY_CASES = ((1, 1), (1, 2), (2, 1))


@dataclass(frozen=True)
class TypeGains:
    """Per-(n,m) gains and bit error rates for one announcement type."""

    q: dict[tuple[int, int], float]
    ebit: dict[tuple[int, int], float]
    q_tot: float
    e_tot: float


@dataclass(frozen=True)
class GainTable:
    """Gains for both announcement types plus the heralding probability
    (1 for non-heralded sources); rates built from this table are per
    (heralded) pulse pair."""

    type1: TypeGains
    type2: TypeGains
    herald_probability: float = 1.0
    protocol: str = "sarg04"

    def for_type(self, announcement_type: int) -> TypeGains:
        if announcement_type == 1:
            return self.type1
        if announcement_type == 2:
            return self.type2
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Per-type key fractions with the positive term breakdown."""

    G1: float
    G2: float
    total: float
    contributions: dict = field(default_factory=dict)
    ec_cost: float = 0.0


def _emission_dist(source) -> tuple[PhotonNumberDist, float]:
    if isinstance(source, HeraldedSource):
        return source.conditional, source.p_herald
    if isinstance(source, PhotonNumberDist):
        return source, 1.0
    raise TypeError(f"unsupported source type {type(source).__name__}")


def assemble_gains(
    source_a,
    source_b,
    det: DetectorParams,
    t_arm: float,
    qnd: bool = False,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = 2,
) -> GainTable:
    """Per-(n,m) gains Q = p_n p_m * sift * yield for both types.

    With `qnd` the relay accepts at most one arriving photon per arm
    (see optics.relay_yields).
    """
    dist_a, herald_a = _emission_dist(source_a)
    dist_b, herald_b = _emission_dist(source_b)
    if qnd and (herald_a != 1.0 or herald_b != 1.0):
        raise ValueError("photon-number postselection expects bare source distributions")
    y = relay_yields(det, t_arm, protocol, bb84_basis, n_max, qnd).tolist()
    photons = range(n_max + 1)
    weight = {(n, m): dist_a.prob(n) * dist_b.prob(m) for n in photons for m in photons}
    sift = SIFT_FACTOR if protocol == "sarg04" else {1: 1.0, 2: 1.0}
    per_type = {}
    for t in (1, 2):
        col_y, col_e = 2 * t - 2, 2 * t - 1  # yield and error-weighted yield of type t
        q = {(n, m): w * sift[t] * y[n][m][col_y] for (n, m), w in weight.items()}
        q_tot = sum(q.values())
        errors = sum(w * sift[t] * y[n][m][col_e] for (n, m), w in weight.items())
        per_type[t] = TypeGains(
            q=q,
            ebit={(n, m): error_rate(y[n][m][col_e], y[n][m][col_y]) for n, m in weight},
            q_tot=q_tot,
            e_tot=errors / q_tot if q_tot > 0 else 0.0,
        )
    return GainTable(
        type1=per_type[1],
        type2=per_type[2],
        herald_probability=herald_a * herald_b,
        protocol=protocol,
    )


def _privacy_term(q: float, e_ph: float) -> float:
    # e_ph >= 0.5 carries no key; clamping into [0, 0.5] makes the term 0
    return q * (1.0 - binary_entropy(min(e_ph, 0.5)))


def phase_bounds(gains: GainTable, one_one_only: bool = False) -> dict:
    """Phase-error bound e_ph of every (type, (n, m)) key term.

    The bit error rates come from the relay yields alone, so the bounds
    depend on the distance and not on the mean photon number.
    """
    return {
        (t, nm): phase_bound(nm, t, gains.for_type(t).ebit[nm]).e_ph
        for t in (1, 2)
        for nm in (((1, 1),) if one_one_only else KEY_CASES)
        if nm in gains.for_type(t).q
    }


def key_fractions(
    gains: GainTable, e_ph: dict, ec_inefficiency: float, type_selection: str = "both"
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_i per announcement type.

    G_i sums the privacy-amplified terms bounded in `e_ph` (from
    `phase_bounds`) and subtracts the error-correction cost over the whole
    sifted key.  Negative G_i are clamped to zero in `total`; raw values
    are kept in G1/G2 for diagnostics.
    """
    if ec_inefficiency < 1:
        raise ValueError(f"error-correction inefficiency must be >= 1, got {ec_inefficiency}")
    include = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}.get(type_selection)
    if include is None:
        raise ValueError(f"unknown type selection {type_selection!r}")
    contributions: dict = {}
    raw = {}
    ec_total = 0.0
    for t in (1, 2):
        tg = gains.for_type(t)
        terms = {(t, nm): _privacy_term(tg.q[nm], b) for (bt, nm), b in e_ph.items() if bt == t}
        contributions.update(terms)
        ec = ec_inefficiency * tg.q_tot * binary_entropy(min(tg.e_tot, 1.0))
        ec_total += ec
        raw[t] = sum(terms.values()) - ec
    total = sum(max(raw[t], 0.0) for t in include)
    return KeyRateBreakdown(
        G1=raw[1], G2=raw[2], total=total, contributions=contributions, ec_cost=ec_total
    )


def key_rate(
    gains: GainTable,
    ec_inefficiency: float,
    one_one_only: bool = False,
    type_selection: str = "both",
) -> KeyRateBreakdown:
    """Key fractions of one gain table, with its phase-error bounds solved."""
    return key_fractions(gains, phase_bounds(gains, one_one_only), ec_inefficiency, type_selection)


def bb84_baseline_rate(
    key_gains: GainTable, test_gains: GainTable, ec_inefficiency: float
) -> float:
    """Simplified asymptotic MDI-BB84 comparator.

    R = Q^(1,1) [1 - h(e_ph^(1,1))] - f_EC Q_tot h(E_tot), with both
    announcement types combined, the key-basis gains providing Q and
    E_tot and the test-basis (1,1) error providing the phase error.
    Clamped at zero.
    """
    q11 = key_gains.type1.q[(1, 1)] + key_gains.type2.q[(1, 1)]
    q_tot = key_gains.type1.q_tot + key_gains.type2.q_tot
    if q_tot == 0.0:
        return 0.0
    e_tot = (
        key_gains.type1.q_tot * key_gains.type1.e_tot
        + key_gains.type2.q_tot * key_gains.type2.e_tot
    ) / q_tot
    tq11 = test_gains.type1.q[(1, 1)] + test_gains.type2.q[(1, 1)]
    e_ph = error_rate(
        test_gains.type1.q[(1, 1)] * test_gains.type1.ebit[(1, 1)]
        + test_gains.type2.q[(1, 1)] * test_gains.type2.ebit[(1, 1)],
        tq11,
    )
    raw = _privacy_term(q11, e_ph) - ec_inefficiency * q_tot * binary_entropy(min(e_tot, 1.0))
    return max(raw, 0.0)
